import numpy as np
import pytest

from perilame.special import exp1

# reference values computed with 50-digit arithmetic (mpmath)
EXP1_REFS = [
    (1e-10, 22.44863526513892394314),
    (1e-06, 13.23829589306249128881),
    (0.001, 6.331539364136149311207),
    (0.05, 2.467898488509974316756),
    (0.3, 0.9056766516758467398461),
    (0.7, 0.3737688432335091757706),
    (1.0, 0.2193839343955202736772),
    (1.0000001, 0.2193838976075798138478),
    (1.5, 0.1000195824066326519019),
    (2.5, 0.02491491787026973549563),
    (5.0, 0.001148295591275325797331),
    (10.0, 0.000004156968929685324277403),
    (30.0, 3.021552010688812544816e-15),
    (100.0, 3.683597761682032180235e-46),
    (500.0, 1.422076782253638422098e-220),
]


@pytest.mark.parametrize("x,ref", EXP1_REFS)
def test_exp1_reference_values(x, ref):
    assert abs(exp1(x) - ref) <= 1e-14 * abs(ref)


def test_vectorized_matches_scalar():
    xs = np.array([0.01, 0.3, 1.2, 3.4, 9.0])
    assert np.allclose(exp1(xs), [exp1(float(x)) for x in xs], rtol=0, atol=0)


def test_exp1_branch_seams():
    # accuracy must not degrade at the series / continued-fraction splits
    import mpmath

    for seam in (1.5, 4.0, 12.0):
        for x in np.linspace(seam - 0.05, seam + 0.05, 11):
            ref = float(mpmath.e1(x))
            assert abs(exp1(x) - ref) <= 2e-14 * ref


def test_exp1_rejects_nonpositive():
    with pytest.raises(ValueError):
        exp1(0.0)
    with pytest.raises(ValueError):
        exp1(np.array([1.0, -2.0]))

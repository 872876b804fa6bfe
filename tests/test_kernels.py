from bitmod import _kernels


def test_rne_rshift_ties_to_even():
    rne = _kernels.rne_rshift
    assert rne(0b101, 1) == 0b10   # 2.5 -> 2
    assert rne(0b111, 1) == 0b100  # 3.5 -> 4
    assert rne(0b1101, 2) == 0b11  # 3.25 -> 3
    assert rne(5, 0) == 5
    assert rne(5, -2) == 20
    for m in range(-300, 300):
        for s in range(5):
            assert rne(m, s) == -rne(-m, s)


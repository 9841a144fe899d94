import pytest

from minitori.cli import main

# 3 x N integer vector sets: the standard basis (times the scale) plus the
# listed columns; rank{Y_j Y_j^t} is 5 or 4, the extension degree 1 to 4.
PENCIL_SETS = {
    "rank5-deg1": (1, [(1, 1, 0), (0, 1, 1)]),
    "rank5-deg2": (1, [(6, 12, -15), (6, 9, -12)]),
    "rank4-deg2": (1, [(-3, 4, -3)]),
    "rank4-deg3": (4, [(-5, 2, -3)]),
    "rank4-deg4": (1, [(5, 7, 8)]),
}


@pytest.mark.parametrize("name", sorted(PENCIL_SETS))
def test_construct_pencil_exits_zero(name, tmp_path, capsys):
    scale, extra = PENCIL_SETS[name]
    cols = [tuple(scale if i == k else 0 for i in range(3)) for k in range(3)] + extra
    y = tmp_path / "y.txt"
    y.write_text("".join(" ".join(str(c[i]) for c in cols) + "\n" for i in range(3)))
    out = tmp_path / "cert.json"
    assert main(["construct", "pencil", "--Y", str(y), "-o", str(out)]) == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "embeddedness:" in printed
    # the eigenfunction index is reported for the rational certificate only
    assert ("eigenfunction index" in printed) == (name == "rank5-deg1")

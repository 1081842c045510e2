"""compare.py's verdict logic on synthetic result files."""

import json

import compare


def _metric(value, lo=None, hi=None, better="lower", bound=0.10, basis="host"):
    stat = {"value": value, "unit": "u", "basis": basis, "better": better, "bound": bound}
    if lo is not None:
        stat.update({"min": lo, "max": hi})
    return stat


def _result(metrics, failed=0, attempted=1000, seed=1):
    return {"schema": "repro.ledger/1", "seed": seed, "smoke": False,
            "workloads": {"w": {"end_to_end": metrics, "ops_failed": failed,
                                "ops_attempted": attempted}}}


def test_regressed_when_worse_by_more_than_the_bound():
    kind, worse_by, _ = compare.verdict(_metric(100, 99, 101), _metric(112, 111, 113))
    assert kind == "regressed" and abs(worse_by - 0.12) < 1e-9


def test_unchanged_inside_the_bound_and_inside_the_spread():
    assert compare.verdict(_metric(100, 98, 102), _metric(103, 101, 105))[0] == "unchanged"
    # Better, but by less than the repeat spread: not a claimable gain.
    assert compare.verdict(_metric(100, 97, 103), _metric(97, 95, 99))[0] == "unchanged"


def test_improved_when_better_by_more_than_the_spread():
    assert compare.verdict(_metric(100, 99, 101), _metric(90, 89, 91))[0] == "improved"


def test_unresolved_when_the_spread_is_wider_than_the_bound():
    kind, _, spread = compare.verdict(_metric(100, 90, 104), _metric(130, 129, 131))
    assert kind == "unresolved" and spread > 0.10


def test_higher_is_better_metrics_flip_the_sign():
    base = _metric(500.0, better="higher", bound=0.05, basis="virtual")
    assert compare.verdict(base, _metric(460.0, better="higher", bound=0.05))[0] == "regressed"
    assert compare.verdict(base, _metric(520.0, better="higher", bound=0.05))[0] == "improved"
    assert compare.verdict(base, _metric(500.0, better="higher", bound=0.05))[0] == "unchanged"


def test_virtual_metrics_that_move_inside_the_bound_are_listed():
    base = _result({"msgs": _metric(200.0, basis="virtual")})
    new = _result({"msgs": _metric(201.0, basis="virtual")})
    rows, moved = compare.compare(base, new)
    assert rows[0]["verdict"] == "unchanged"
    assert moved == ["w/msgs"]
    assert compare.compare(base, base)[1] == []


def test_a_higher_failed_share_is_a_regression():
    metrics = {"t": _metric(100, 99, 101)}
    rows, _ = compare.compare(_result(metrics, failed=0), _result(metrics, failed=5))
    failed = [r for r in rows if r["metric"] == "failed_share"][0]
    assert failed["verdict"] == "regressed" and failed["new"] == 0.005
    rows, _ = compare.compare(_result(metrics, failed=5), _result(metrics, failed=5))
    assert [r for r in rows if r["metric"] == "failed_share"][0]["verdict"] == "unchanged"


def test_exit_codes(tmp_path, capsys):
    def write(name, result):
        path = tmp_path / name
        path.write_text(json.dumps(result))
        return str(path)

    base = write("a.json", _result({"t": _metric(100, 99, 101)}))
    same = write("b.json", _result({"t": _metric(101, 100, 102)}))
    slow = write("c.json", _result({"t": _metric(120, 119, 121)}))
    other_seed = write("d.json", _result({"t": _metric(100, 99, 101)}, seed=2))
    assert compare.main([base, same]) == 0
    assert "new/base" in capsys.readouterr().out
    assert compare.main([base, slow]) == 1
    assert compare.main([base, other_seed]) == 2
    assert compare.main([base]) == 2

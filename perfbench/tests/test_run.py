import run


def test_an_output_equal_to_a_passed_one_is_not_checked_again(monkeypatch):
    checked = []

    def check(op, result):
        checked.append(result["value"])
        ok = result["value"] == 1
        return ok, not ok, None if ok else "wrong"

    monkeypatch.setattr(run.checker, "check", check)
    tally = run.Tally()
    op = {"run": "far_term", "check": "far_term", "p": 2, "d": 5, "e": 9}
    for value in (1, 1, 2, 1, 2):
        tally.add(op, 0.1, {"value": value})
    assert checked == [1, 2, 2]
    assert tally.passed == [True, True, False, True, False]
    assert (tally.ok, tally.failed, tally.wrong) == (3, 2, 2)

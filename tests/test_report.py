from fuzztop.report import FAIL, PASS, Report


def test_record_fail_keeps_the_first_witness():
    rep = Report("r")
    rep.record("ax", False, "first")
    rep.record("ax", False, "second")
    rep.record("ax", False, "third")
    rep.record("ax", True)
    assert rep.verdicts["ax"].status == FAIL
    assert rep.verdicts["ax"].witness == "first"
    assert not rep.passed



def test_sweep_of_no_witnesses_passes():
    rep = Report("r")
    rep.sweep("ax", iter(()))
    assert rep.verdicts["ax"].status == PASS
    assert rep.passed


def test_sweep_keeps_the_first_witness():
    rep = Report("r")
    rep.sweep("ax", ["first", "second"])
    assert rep.verdicts["ax"].status == FAIL
    assert rep.verdicts["ax"].witness == "first"


def test_sweep_of_a_none_witness_fails():
    rep = Report("r")
    rep.sweep("ax", [None])
    assert rep.verdicts["ax"].status == FAIL
    assert rep.verdicts["ax"].witness is None
    assert not rep.passed


def test_sweep_keeps_an_earlier_failure():
    rep = Report("r")
    rep.record("ax", False, "earlier")
    rep.sweep("ax", [])
    rep.sweep("ax", ["later"])
    assert rep.verdicts["ax"].status == FAIL
    assert rep.verdicts["ax"].witness == "earlier"


def test_sweep_draws_nothing_after_the_first_failure():
    drawn = []

    def witnesses():
        for w in ("first", "second", "third"):
            drawn.append(w)
            yield w

    Report("r").sweep("ax", witnesses())
    assert drawn == ["first"]

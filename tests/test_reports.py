"""Report assembly: the overall verdict of a run."""

from projeq import reports
from projeq.manifest import RunParams
from projeq.tolerances import DEFAULT


def verdict(audits):
    return reports.summarize("check-bm", audits, DEFAULT, RunParams())["pass"]


def test_run_with_no_audits_does_not_pass():
    assert verdict([]) is False


def test_run_passes_only_when_every_audit_passes():
    ok = reports.audit("a", 0.0, 1.0, True)
    bad = reports.audit("b", 2.0, 1.0, False)
    assert verdict([ok]) is True
    assert verdict([ok, ok]) is True
    assert verdict([ok, bad]) is False
    assert verdict([bad]) is False

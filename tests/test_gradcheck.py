"""The gradient-check suites: one per method, built from the method table."""

import pytest

from ssht import gradcheck, losses, pipeline


def test_run_all_checks_the_network_then_every_method():
    results = gradcheck.run_all(seed=0)
    assert [r.name for r in results] == ["network_backward",
                                         *pipeline.METHODS]
    assert all(r.passed for r in results)
    assert all(r.checked == 6 for r in results[1:])


def _scaled_gradient(loss):
    """loss with its logit gradient scaled by 1.01."""
    def scaled(*args):
        value = loss(*args)
        value.grad = 1.01 * value.grad
        return value
    return scaled


def _scaled_hard_target_rows(term):
    """losses._hard_targets with the gradient of term's rows scaled by
    1.01: the labeled rows for classification, the strong rows (the last
    n) for consistency."""
    hard_targets = losses._hard_targets

    def scaled(p, log_p, labels, n, weights, tau):
        grad, *values = hard_targets(p, log_p, labels, n, weights, tau)
        n_l = len(labels)
        rows = slice(0, n_l) if term == "classification" else \
            slice(n_l + n, n_l + 2 * n)
        grad[rows] *= 1.01
        return grad, *values
    return scaled


@pytest.mark.parametrize("term", ["classification", *losses.TERMS])
def test_a_wrong_term_gradient_fails_every_method_using_it(monkeypatch, term):
    if term in ("classification", "consistency"):
        monkeypatch.setattr(losses, "_hard_targets",
                            _scaled_hard_target_rows(term))
    else:
        name = f"{term}_loss"
        monkeypatch.setattr(losses, name,
                            _scaled_gradient(getattr(losses, name)))
    failed = [m for i, m in enumerate(pipeline.METHODS)
              if not gradcheck.check_method(m, seed=1 + i).passed]
    assert failed == [m for m in pipeline.METHODS if term == "classification"
                      or term in pipeline.METHOD_TERMS[m]]


@pytest.mark.parametrize("setting,value,method", [
    ("SPECTRUM_GAP", 1.0, "cdl_no_cl"), ("TAU", 1.0, "cdl_no_dl")])
def test_a_suite_that_skips_every_instance_fails(monkeypatch, setting, value,
                                                 method):
    # with every spectrum degenerate, or every weak row masked, each of
    # the 20 attempts per wanted instance is skipped
    monkeypatch.setattr(gradcheck, setting, value)
    report = gradcheck.check_method(method, trials=2)
    assert (report.checked, report.skipped, report.passed) == (0, 40, False)
    assert gradcheck.check_method("s_plus_t", trials=2).passed

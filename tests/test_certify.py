"""The certify sweeps build the tables they enumerate or sample through
``FiniteFn._trusted``, skipping the checked constructor.  Every table built
that way during a run must be one the checked constructor would build from
the same columns: tuple columns of canonical values.
"""
from polyfract import FiniteFn
from polyfract.certify import CertifyOptions, run_all

SMALL = CertifyOptions(max_prime=3, max_alpha=2, max_beta=2, samples=5,
                       count_limit=4)


def test_trusted_sweep_tables_are_canonical(monkeypatch):
    trusted = FiniteFn._trusted.__func__
    built = []

    def spy(cls, domain, codomain, columns):
        f = trusted(cls, domain, codomain, columns)
        built.append(f)
        return f

    monkeypatch.setattr(FiniteFn, "_trusted", classmethod(spy))
    results = run_all(SMALL)
    assert [r for r in results if not r.passed] == []
    assert built
    for f in built:
        assert all(type(col) is tuple for col in f.columns)
        assert f == FiniteFn(f.domain_moduli, f.codomain_moduli, columns=f.columns)

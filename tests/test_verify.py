import json

from qpaths.verify import (
    IdentityRecord,
    VerificationReport,
    run_bound_suite,
    run_fluctuation_suite,
    run_identity_suite,
    run_suites,
)


class TestIdentitySuite:
    def test_passes(self):
        report = run_identity_suite(max_nm=6, enumeration_limit=6, random_instances=40)
        assert report.passed
        names = {r.name for r in report.records}
        assert {
            "closed-form-vs-enumeration",
            "pascal-upper-corner",
            "pascal-lower-corner",
            "markov-cut-factorization",
            "translation-shift",
            "transpose-symmetry",
            "box-transpose-symmetry",
        } <= names
        assert all(r.instances > 0 for r in report.records)

    def test_deterministic_given_seed(self):
        a = run_identity_suite(max_nm=5, enumeration_limit=5, random_instances=20, seed=3)
        b = run_identity_suite(max_nm=5, enumeration_limit=5, random_instances=20, seed=3)
        assert a.to_json_obj() == b.to_json_obj()


class TestBoundSuite:
    def test_passes(self):
        report = run_bound_suite(max_chain=6)
        assert report.passed
        hard = {r.name for r in report.records if not r.informational}
        assert {
            "down-spin-bound",
            "up-spin-bound",
            "adjacent-pair-bound",
            "multipoint-exponential-bound",
            "partition-ratio-bound",
        } == hard
        # each bound but the ratio one has an out-of-regime twin, and no name repeats
        names = [r.name for r in report.records]
        assert len(names) == 9
        assert set(names) == hard | {
            f"{name}-out-of-regime" for name in hard - {"partition-ratio-bound"}
        }
        assert all(r.instances > 0 for r in report.records if not r.informational)

    def test_out_of_regime_records_are_informational(self):
        report = run_bound_suite(max_chain=5)
        info = [r for r in report.records if r.informational]
        assert info and all(r.name.endswith("out-of-regime") for r in info)
        # an informational failure must not flip the overall flag
        info[0].failures.append({"n": 0})
        assert report.passed


class TestFluctuationSuite:
    def test_passes(self):
        report = run_fluctuation_suite(max_N=8)
        assert report.passed
        assert {r.name for r in report.records} == {
            "fluctuation-normalization",
            "fluctuation-symmetry-mean",
            "fluctuation-tail-bound",
        }


class TestReportShape:
    def test_failure_reporting(self):
        record = IdentityRecord("demo", "x equals y")
        record.check(True, {"n": 1})
        record.check(False, {"n": 2})
        assert not record.passed
        obj = record.to_json_obj()
        assert obj["instances"] == 2
        assert obj["failure_count"] == 1
        assert obj["failures"] == [{"n": "2"}]

    def test_record_joins_its_report(self):
        report = VerificationReport()
        record = report.record("demo", "x equals y", informational=True)
        assert report.records == [record] and record.informational
        record.check(False, {"n": 1})
        assert report.passed  # an informational failure
        assert VerificationReport([record]).records == [record]

    def test_json_is_stable_and_sorted(self):
        report = run_suites(["identities"], max_nm=4, enumeration_limit=4, random_instances=10)
        obj = report.to_json_obj()
        names = [r["name"] for r in obj["records"]]
        assert names == sorted(names)
        assert json.dumps(obj, sort_keys=True) == json.dumps(
            run_suites(
                ["identities"], max_nm=4, enumeration_limit=4, random_instances=10
            ).to_json_obj(),
            sort_keys=True,
        )

    def test_unknown_suite_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            run_suites(["nonsense"])

    def test_all_runs_everything(self):
        report = run_suites(
            ["all"], max_nm=4, enumeration_limit=4, random_instances=10, max_chain=4
        )
        names = {r.name for r in report.records}
        assert "pascal-upper-corner" in names
        assert "down-spin-bound" in names
        assert "fluctuation-tail-bound" in names
        assert report.passed

"""The output checks accept good sweeps and reject each kind of corruption."""

import contextlib
import io
import json
import os

import pytest

import checks
from workloads import METHODS, REFERENCE_SEED, WORKLOADS

WL = WORKLOADS["desk-sweep"]
REFERENCE = os.path.join(os.path.dirname(checks.__file__), "reference.json")

# Errors per (method, MSNR point) for a plausible sweep: none is far worse
# than the Householder receivers, perfect is best.
GOOD_ERRORS = {"perfect": 10, "wsu": 130, "none": 4700, "hr-iso": 160, "hr-max": 130}


def _csv(rows):
    lines = [checks.CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['method']},{r['rho_db']!r},{r['q']},{r['C']},{r['B']},{r['U']},"
            f"{r['msnr_db']!r},{r['bit_errors']},{r['total_bits']},"
            f"{r['bit_errors'] / r['total_bits']!r},{r['realizations']},{r['seed']}"
        )
    return "\n".join(lines) + "\n"


def _rows(seed=5, errors=GOOD_ERRORS):
    bits = WL.realizations * WL.bits_per_trial
    return [
        dict(method=m, rho_db=30.0, q=3, C=WL.clusters, B=WL.bs_antennas, U=WL.ues,
             msnr_db=x, bit_errors=errors[m], total_bits=bits,
             realizations=WL.realizations, seed=seed)
        for m in METHODS
        for x in WL.msnr_grid()
    ]


def test_good_sweep_passes():
    assert checks.check_sweep(_csv(_rows()), WL, 5) == []


def _corrupt(edit):
    rows = _rows()
    edit(rows)
    return checks.check_sweep(_csv(rows), WL, 5)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows.pop(3),
        lambda rows: rows.append(dict(rows[0])),
        lambda rows: rows.reverse(),
        lambda rows: rows[0].update(total_bits=rows[0]["total_bits"] - 4),
        lambda rows: rows[0].update(seed=6),
        lambda rows: rows[1].update(realizations=9),
        lambda rows: rows[2].update(C=4),
        lambda rows: rows[0].update(bit_errors=rows[0]["total_bits"] + 1),
    ],
    ids=["missing-row", "extra-row", "reordered", "total-bits", "seed",
         "realizations", "clusters", "errors-exceed-bits"],
)
def test_malformed_records_rejected(edit):
    assert _corrupt(edit)


def test_inconsistent_ber_rejected():
    lines = _csv(_rows()).split("\n")
    fields = lines[1].split(",")
    fields[9] = "0.5"
    lines[1] = ",".join(fields)
    assert checks.check_sweep("\n".join(lines), WL, 5)


@pytest.mark.parametrize(
    "text",
    ["", "method,ber\n", checks.CSV_HEADER, checks.CSV_HEADER + "\nperfect,1\n"],
    ids=["empty", "header", "unterminated", "short-row"],
)
def test_unparseable_csv_rejected(text):
    assert checks.check_sweep(text, WL, 5)


@pytest.mark.parametrize(
    "change",
    [{"perfect": 200}, {"none": 300}, {"hr-max": 2400}],
    ids=["perfect-not-lowest", "none-near-hr-iso", "none-near-hr-max"],
)
def test_ordering_violations_rejected(change):
    rows = checks.parse_csv(_csv(_rows(errors={**GOOD_ERRORS, **change})))
    assert checks.check_well_formed(rows, WL, 5) == []
    assert checks.check_ordering(rows)


def test_reference_sweep_gets_ordering_and_reference_checks():
    bad = _csv(_rows(seed=REFERENCE_SEED, errors={**GOOD_ERRORS, "perfect": 200}))
    pooled = checks.pooled_errors(checks.parse_csv(bad))
    assert checks.check_sweep(bad, WL, REFERENCE_SEED) == []
    problems = checks.check_sweep(bad, WL, REFERENCE_SEED, pooled)
    assert problems and all("perfect is not lowest" in p for p in problems)


def _reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def test_reference_matches_workloads():
    ref = _reference()
    assert set(ref) == set(WORKLOADS)
    for name, entry in ref.items():
        assert entry["realizations"] == WORKLOADS[name].realizations
        assert entry["seed"] == REFERENCE_SEED


def _pooled_rows(pooled):
    # One row per method carries the whole pooled count.
    return [checks.Row(m, 30.0, 3, 8, 64, 8, 4.0, n, 10**9, n / 10**9, 1, 1)
            for m, n in pooled.items()]


def test_reference_admits_a_few_flipped_decisions():
    want = _reference()["desk-sweep"]["pooled_errors"]
    flipped = {m: n + (7 if i % 2 else -7) for i, (m, n) in enumerate(want.items())}
    assert checks.check_reference(_pooled_rows(flipped), want) == []


def test_reference_rejects_receiver_without_transform_gain():
    # hr-iso degraded to the untransformed receiver's error count.
    want = _reference()["paper-sweep"]["pooled_errors"]
    lost = {**want, "hr-iso": want["none"]}
    assert checks.check_reference(_pooled_rows(lost), want)


def test_real_sweep_without_transform_fails_reference(tmp_path, monkeypatch):
    """The program at its reference seed passes; with the hr-iso reflectors
    replaced by the identity it fails the reference check."""
    import hdrmimo.cli
    from hdrmimo import harness

    want = _reference()["desk-sweep"]["pooled_errors"]

    def sweep(path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert hdrmimo.cli.main(WL.cli_args(REFERENCE_SEED, str(path))) == 0
        return path.read_text()

    assert checks.check_sweep(sweep(tmp_path / "ok.csv"), WL, REFERENCE_SEED, want) == []
    monkeypatch.setattr(
        harness, "design_hr_iso", lambda h, c: harness.identity_transform(len(h), c)
    )
    rows = checks.parse_csv(sweep(tmp_path / "bad.csv"))
    assert checks.check_well_formed(rows, WL, REFERENCE_SEED) == []
    assert any(p.startswith("pooled hr-iso") for p in checks.check_reference(rows, want))

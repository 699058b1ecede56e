"""The benchmark's workloads: input generation, set-up, the timed op and the
checks made on its result outside the timed region.

Every workload is one caller in a closed loop: the next op is issued when
the previous one returns. An op is one in-process call to
`torus_embed.cli.main`, the same entry point as the `torus-embed` command.

embed-random   the main path, building a certificate, at n = 16.
               Verification and the almost-regular correction do most of
               the work, so changes to the correction's factor count or to
               the chord kernel show.
verify-cert    the reader's path: `verify` on certificates built in set-up,
               one in four tampered, so the reject path (exit 3) runs as
               well as the accept path (exit 0). No construction.
embed-extreme  n = 8 with scales 10^-150..10^150 and one flattened axis:
               huge base polygon orders (1,000-2,300 bits) and exact
               rational gridding dominate; about a third of the inputs hit
               known construction defects, which the package reports as
               typed refusals. They are recorded and lower the success
               ratio; they are never skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import check

# exit codes of the CLI's typed errors (input, not a simplex, verification)
REFUSAL_CODES = (1, 2, 3)

# the package's documented rank tolerance, and the margin by which the
# benchmark's own rank test must clear it before an input is used
RANK_TOL = 1e-9
RANK_MARGIN = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "embed" or "verify"
    n: int  # points per input
    pool: int  # distinct inputs, cycled in order
    stream: int  # seed stream, so workloads never share inputs
    mem_ops: int  # inputs run again, untimed, for the memory metric
    extreme: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("embed-random", "embed", n=16, pool=24, stream=1, mem_ops=3),
        Workload("verify-cert", "verify", n=16, pool=16, stream=2, mem_ops=3),
        Workload("embed-extreme", "embed", n=8, pool=768, stream=3, mem_ops=48,
                 extreme=True),
    )
}


@dataclass
class Case:
    """One pool entry: the input sent, or the certificate to verify."""

    points: np.ndarray
    input_text: str = ""
    cert_path: str = ""
    original: str = ""  # the certificate as built, before any tamper
    expect_rc: int = 0
    sizes: dict = field(default_factory=dict)


@dataclass
class Outcome:
    case: int
    seconds: float  # wall time
    rc: int | None
    cpu: float = 0.0  # CPU time of this process during the op
    traced: bool = False
    error: str | None = None  # failure category; None when the op succeeded
    refused: bool = False  # the error is a typed refusal, a known defect
    wrong: list = field(default_factory=list)  # failed correctness checks
    sizes: dict = field(default_factory=dict)
    digest: str = ""
    spans: list | None = None
    profile: tuple | None = None  # per-layer numbers of a traced op


def rank_ok(points: np.ndarray) -> bool:
    """Affinely independent with RANK_MARGIN to spare over the package's
    rank tolerance: every centered singular value clears the bound."""
    s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return len(s) == points.shape[0] - 1 and (s[-1] / s[0]) ** 2 > RANK_MARGIN * RANK_TOL


def draw_points(rng: np.random.Generator, n: int, extreme: bool) -> np.ndarray:
    """n points uniform in [-1, 1]^(n-1); the extreme kind flattens the last
    axis by 10^U(-3, -1.5) and scales the set by 10^U(-150, 150)."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (n, n - 1))
        if extreme:
            pts[:, -1] *= 10.0 ** rng.uniform(-3.0, -1.5)
            pts *= 10.0 ** rng.uniform(-150.0, 150.0)
        if rank_ok(pts):
            return pts


def input_text(points: np.ndarray) -> str:
    return json.dumps({"points": points.tolist()})


def error_category(rc: int | None, stderr: str, crash: str | None) -> str:
    """Stable failure label: exit code plus the message's leading clause."""
    if crash is not None:
        return f"crash: {crash}"
    msg = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    msg = msg.removeprefix("torus-embed: ").split(":")[0].split(" (")[0]
    return f"exit {rc}: {msg}"


def guarded(main, argv, out: io.StringIO, err: io.StringIO):
    """Call the CLI with its output captured; returns (rc, crash name)."""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv), None
    except (Exception, SystemExit) as exc:  # a crash is a measured outcome
        return None, type(exc).__name__


def cert_sizes(text: str, cert: dict) -> dict:
    return {
        "bytes": len(text.encode("utf-8")),
        "factors": len(cert["m"]),
        "m_bits": max(cert["m"]).bit_length(),
    }


def check_certificate(text: str, points: np.ndarray, pkg) -> tuple[list, dict]:
    """Checks on a written certificate; returns (failed checks, sizes)."""
    wrong = []
    if not check.round_trips(
        text, pkg.certificate.loads_certificate, pkg.certificate.dumps_certificate
    ):
        wrong.append("canonical round trip changed the bytes")
    try:
        cert = check.parse(text)
        rel = check.max_rel_error(cert)
    except (KeyError, TypeError, ValueError) as exc:
        return wrong + [f"unreadable certificate: {exc}"], {}
    if not check.input_matches(cert, points):
        wrong.append("certificate input is not the metric sent")
    if not rel <= check.ACCEPT_TOL:
        wrong.append(f"re-verification failed: max relative error {rel:.3e}")
    return wrong, dict(cert_sizes(text, cert), max_rel=rel)


def _tamper(rng: np.random.Generator, text: str, pkg) -> str:
    """Turn one base-factor index of one point half way round its polygon."""
    obj = json.loads(text)
    base_m = int(obj["parameters"]["m"])
    base = [k for k, f in enumerate(obj["torus"]["factors"]) if int(f["m"]) == base_m]
    point = int(rng.integers(len(obj["assignment"])))
    k = base[int(rng.integers(len(base)))]
    idx = int(obj["assignment"][point][k])
    obj["assignment"][point][k] = str((idx + base_m // 2) % base_m)
    return pkg.certificate.dumps_canonical(obj) + "\n"


def build_pool(w: Workload, seed: int, workdir: str, pkg) -> tuple[list[Case], list]:
    """Generate the workload's inputs; for verify-cert also build the
    certificates and tamper one in four. Returns (cases, failures)."""
    rng = np.random.default_rng([seed, w.stream])
    points = [draw_points(rng, w.n, w.extreme) for _ in range(w.pool)]
    if w.op == "embed":
        return [Case(p, input_text=input_text(p)) for p in points], []
    wrong = []
    cases = []
    tampered = set(rng.permutation(w.pool)[: w.pool // 4].tolist())
    for k, pts in enumerate(points):
        inp = os.path.join(workdir, f"in-{k}.json")
        path = os.path.join(workdir, f"cert-{k}.json")
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write(input_text(pts))
        rc, crash = guarded(pkg.cli.main, ["embed", "--quiet", inp, path],
                            io.StringIO(), io.StringIO())
        if rc != 0:
            wrong.append(f"set-up embed of input {k} failed: rc {rc} {crash or ''}")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        case = Case(pts, cert_path=path, original=text)
        if k in tampered:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_tamper(rng, text, pkg))
            case.expect_rc = 3
        cases.append(case)
    return cases, wrong


def check_pool(cases: list[Case], pkg) -> list:
    """Checks on the certificates a verify-cert set-up built: each original
    passes, and each tamper is one half-turn index that fails re-verification."""
    wrong = []
    for k, case in enumerate(cases):
        if not case.cert_path:
            continue
        bad, case.sizes = check_certificate(case.original, case.points, pkg)
        wrong.extend(f"set-up certificate {k}: {b}" for b in bad)
        if case.expect_rc == 0:
            continue
        with open(case.cert_path, encoding="utf-8") as fh:
            forged = fh.read()
        if not check.is_half_turn_tamper(check.parse(case.original), check.parse(forged)):
            wrong.append(f"tamper of certificate {k} is not one half-turn index")
        if not check.max_rel_error(check.parse(forged)) > check.ACCEPT_TOL:
            wrong.append(f"tampered certificate {k} still re-verifies")
        if not check.round_trips(
            forged, pkg.certificate.loads_certificate, pkg.certificate.dumps_certificate
        ):
            wrong.append(f"tampered certificate {k} is not canonical")
    return wrong


def op_argv(w: Workload, case: Case, workdir: str) -> list[str]:
    """The CLI arguments of the op on `case`, with its input file written
    and any earlier output removed."""
    if w.op == "verify":
        return ["verify", case.cert_path]
    inp = os.path.join(workdir, "op-in.json")
    path = os.path.join(workdir, "op-cert.json")
    with open(inp, "w", encoding="utf-8") as fh:
        fh.write(case.input_text)
    if os.path.exists(path):
        os.remove(path)
    return ["embed", "--quiet", inp, path]


def run_op(w: Workload, k: int, case: Case, workdir: str, pkg, op_id: int,
           tracer=None) -> Outcome:
    """Op `op_id` on pool entry `k`, timed, then checked after the clock stops."""
    out, err = io.StringIO(), io.StringIO()
    argv = op_argv(w, case, workdir)
    spans = None
    t0 = time.perf_counter()
    c0 = time.process_time()
    if tracer is None:
        rc, crash = guarded(pkg.cli.main, argv, out, err)
    else:
        (rc, crash), spans = tracer.root(
            "cli." + w.op, op_id, lambda: guarded(pkg.cli.main, argv, out, err)
        )
    cpu = time.process_time() - c0
    seconds = time.perf_counter() - t0
    res = Outcome(k, seconds, rc, cpu=cpu, traced=tracer is not None, spans=spans)
    if rc != case.expect_rc:
        res.error = error_category(rc, err.getvalue(), crash)
        if w.extreme and rc in REFUSAL_CODES:
            # the package's contract for an input it cannot embed: a typed
            # error with its exit code, a message and no certificate
            res.refused = True
            if not err.getvalue().startswith("torus-embed: "):
                res.wrong.append(f"exit {rc} without an error message")
            if os.path.exists(argv[-1]):
                res.wrong.append(f"exit {rc} but a certificate was written")
        return res
    if w.op == "verify":
        lines = out.getvalue().strip().splitlines()
        verdict = lines[-1].split()[0] if lines else ""
        if verdict != ("PASS" if case.expect_rc == 0 else "FAIL"):
            res.wrong.append(f"verdict line {verdict!r} does not match exit {rc}")
        res.sizes = case.sizes
        return res
    try:
        with open(argv[-1], encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        res.wrong.append(f"exit 0 without a certificate: {exc}")
        return res
    res.wrong, res.sizes = check_certificate(text, case.points, pkg)
    res.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return res

"""Reference outputs and the check behind ``ref_mismatch``.

``reference/<workload>.json`` holds, for every item of the workload's
input pool, the output rews produced when the benchmark was defined.
:func:`compare` lists every output value outside the tolerance stated in
``reference/tolerance.json``:

* labels, verdicts, booleans, integers, strings and file lists match exactly;
* floats match within ``float_rtol`` (absolute ``float_atol`` near zero);
* margins (the fields named in ``margin_fields``) match within the
  bisection tolerance ``margin_atol``;
* an operation that failed in the reference is not compared, so one that
  now succeeds is not a mismatch; one that succeeded and now fails is.

To capture the reference again, for a change to rews that alters its
outputs on purpose, run from the checkout root::

    python3 perfbench/reference.py [workload ...]
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def load_tolerance() -> dict:
    with open(os.path.join(REF_DIR, "tolerance.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load(workload: str) -> dict:
    with open(os.path.join(REF_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pool_sha256(pool) -> str:
    return hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()


def _floats_match(ref: float, got: float, rtol: float, atol: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return ref == got or math.isclose(ref, got, rel_tol=rtol, abs_tol=atol)


def _diff(ref, got, path: str, tol: dict, out: list) -> None:
    if isinstance(ref, dict) and isinstance(got, dict):
        for key in sorted(set(ref) | set(got)):
            if key not in ref or key not in got:
                out.append(f"{path}.{key}: present on one side only")
            else:
                _diff(ref[key], got[key], f"{path}.{key}", tol, out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(got)} != {len(ref)}")
        else:
            for i, (r, g) in enumerate(zip(ref, got)):
                _diff(r, g, f"{path}[{i}]", tol, out)
    elif isinstance(ref, float) and isinstance(got, float):
        if any(path.endswith("." + f) for f in tol["margin_fields"]):
            ok = _floats_match(ref, got, 0.0, tol["margin_atol"])
        else:
            ok = _floats_match(ref, got, tol["float_rtol"], tol["float_atol"])
        if not ok:
            out.append(f"{path}: {got!r} != {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{path}: {got!r} != {ref!r}")


def compare(reference: dict, outputs: dict, tol: dict) -> list:
    """Mismatches of ``outputs`` against the reference outputs, one per value."""
    mismatches = []
    for key, got in outputs.items():
        ref = reference.get(key)
        if ref is None:
            mismatches.append(f"{key}: no reference output")
        elif "error" in ref:
            continue
        elif "error" in got:
            mismatches.append(f"{key}: failed with {got['error']}, reference succeeded")
        else:
            _diff(ref, got, key, tol, mismatches)
    return mismatches


def capture(workload: str) -> dict:
    """Run every pool item of ``workload`` once and return the reference."""
    import env
    import workloads
    pool = workloads.pool_for(workload)
    os.makedirs(env.OUT_DIR, exist_ok=True)
    result = workloads.PASSES[workload](workloads.all_inputs(workload, pool), env.OUT_DIR)
    return {
        "workload": workload,
        "pool_sha256": pool_sha256(pool),
        "provenance": env.provenance(None, os.getloadavg()),
        "failed": result.failed,
        "attempted": result.attempted,
        "outputs": result.outputs,
    }


def main(argv) -> int:
    import env
    env.prepare()
    import workloads
    for workload in argv or workloads.WORKLOADS:
        ref = capture(workload)
        with open(os.path.join(REF_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {ref['attempted']} operations, {ref['failed']} failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

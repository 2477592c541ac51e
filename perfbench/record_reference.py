"""Record ``reference.json``: outcomes of the first requests on the default seed.

Usage (from the repository root):

    python3 perfbench/record_reference.py

For each workload it stores ``[n_iters, m_final, stop_reason, avg]`` of
the first requests of the default seed. ``run.py`` compares every run
on that seed against it: the first three exactly, ``avg`` to 1e-9
relative. Re-record only when a change is meant to alter the numerics.
"""

import json
import os
import sys

from common import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from common import DEFAULT_SEED, OUT_DIR, REFERENCE_PATH, SRC, WORKLOADS, request_at

# Enough to cover a short run of each workload.
RECORDED = {"sweep": 160, "deep": 30, "oneshot": 12}


def main():
    sys.path.insert(0, str(SRC))
    import inproc
    import oneshot

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "reference-u.csv"
    reference = {}
    for name, count in RECORDED.items():
        spec = WORKLOADS[name]
        if name == "oneshot":
            do = lambda req: oneshot.launch(req, out_path)
        else:
            ctx = inproc.setup(spec)
            do = lambda req: inproc.run_request(ctx, req)
        reference[name] = [
            [o.n_iters, o.m_final, o.stop_reason, o.avg]
            for o in (do(request_at(spec, DEFAULT_SEED, i)) for i in range(count))
        ]
        ctx = None
    out_path.unlink()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""One benchmark operation in its own process.

    python3 bench/child.py gauss 3,5,7,11,13
        Gauss-sum tower checks through the public API, in the given order of
        characteristics; prints one JSON object of check results per tower.
    python3 bench/child.py --trace FILE --trace-id ID gauss ...
    python3 bench/child.py --trace FILE --trace-id ID cli all --p 3 ...
        The same operation, or `altsums.cli.main` with the given arguments,
        with every layer wrapped by `spans.install`; the span tree is written
        to FILE when the operation ends.

The untraced CLI operations do not go through this file: run.py times them
as plain `python3 -m altsums.cli` processes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

GAUSS_MAX_ORDER = 30_000  # largest #L of a tower; keeps the run at seconds


def gauss_tower(p: int) -> dict:
    """Gauss-sum identities on every F_{p^d} with p^d <= GAUSS_MAX_ORDER,
    then Hasse-Davenport for n = 2p - 1 over the whole tower."""
    from altsums import (CharacterContext, build_field, gauss_identities,
                         hasse_davenport_check)
    ctx = CharacterContext.make(build_field(p, 1), 1)
    fields, identities = [], []
    d = 1
    while p ** d <= GAUSS_MAX_ORDER:
        L = build_field(p, d)
        rep = gauss_identities(ctx, L)
        fields.append(L.canonical_text())
        identities.append([rep.norm_ok, rep.square_ok, rep.conj_ok])
        d += 1
    hd = hasse_davenport_check(ctx, 2 * p - 1, range(1, d))
    return {"fields": fields, "gauss_identities": identities,
            "hasse_davenport": [row.equal for row in hd.rows]}


def run_gauss(order: list[int]) -> int:
    result = {str(p): gauss_tower(p) for p in order}
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", default=None, help="write the span tree here")
    ap.add_argument("--trace-id", default="untraced")
    ap.add_argument("mode", choices=("gauss", "cli"))
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    rec = None
    if args.trace:
        rec = spans.Recorder(args.trace_id)
        spans.install(rec)
    try:
        if args.mode == "gauss":
            return run_gauss([int(p) for p in args.rest[0].split(",")])
        import altsums.cli
        return altsums.cli.main(args.rest)
    finally:
        sys.stdout.flush()
        if rec is not None:
            rec.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())

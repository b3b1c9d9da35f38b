"""``arithdt oracle``: brute-force plane-partition counts."""

from ..partitions import count_plane_partitions, count_symmetric_plane_partitions


def run(args) -> tuple:
    if args.kind == "pp":
        value = count_plane_partitions(args.n)
    else:
        value = count_symmetric_plane_partitions(args.n)
    return {"kind": args.kind, "n": args.n, "count": value}, lambda: str(value)

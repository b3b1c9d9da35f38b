"""``arithdt nearby``: the nearby class of SNC stratification data read from a JSON file."""

from ..fields import QQ
from ..motivic import chi_a1
from ..nearby import SncData, local_nearby_class, nearby_class, virtual_class_critical_locus
from . import load_json


def _released(items: list):
    """Yield the items of ``items`` in order, dropping each from the list as it is
    yielded: a consumer that keeps only what it builds holds one raw item at a time."""
    items.reverse()
    while items:
        yield items.pop()


def run(args) -> tuple:
    tree = load_json(args.data)
    if isinstance(tree, dict) and isinstance(tree.get("strata"), list):
        # each raw stratum is freed once its record is built
        tree["strata"] = _released(tree["strata"])
    data = SncData.from_json_dict(tree)
    del tree
    cls = local_nearby_class(data) if args.local else nearby_class(data)
    x0, dim = data.central_fiber_class, data.ambient_dimension
    del data  # the records are not read again
    virt = None
    if x0 is not None and not args.local:
        virt = virtual_class_critical_locus(cls, x0, dim)
    key = "local_nearby_class" if args.local else "nearby_class"
    rendered = cls.render()
    payload = {key: cls.to_json_dict(), "rendered": rendered}
    if virt is not None:
        payload["virtual_class"] = virt.to_json_dict()
    a1 = chi_a1(cls, QQ)
    payload["euler"] = {
        "complex": a1.numeric_complex(),
        "real": a1.numeric_real().to_json_dict(),
        "a1": a1.to_json_dict(),
    }

    def text() -> str:
        if virt is None:
            return f"{key}: {rendered}"
        return f"{key}: {rendered}\nvirtual_class: {virt.render()}"

    return payload, text

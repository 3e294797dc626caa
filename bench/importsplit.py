"""Split ``python -X importtime -c "import gft"`` into per-package import times.

``-X importtime`` prints one line per module, after the modules it imported,
indented two spaces per nesting level::

    import time: self [us] | cumulative | imported package
    import time:      1954 |     887994 |     scipy.optimize

The split walks the subtree of the top-level ``gft`` entry. A gft module
counts its self time toward ``gft``. At the first module of another top-level
package (a boundary that gft imports) the whole cumulative time of that
module goes to the package, ``numpy``, ``scipy`` or ``other``, without
descending: whatever scipy pulls in (``numpy.f2py``, ``charset_normalizer``)
counts toward scipy.
"""

from __future__ import annotations

PREFIX = "import time:"


def parse(text: str) -> list:
    """Top-level entries as (name, self_us, cumulative_us, children) trees."""
    pending: list = []  # (level, node)
    for line in text.splitlines():
        if not line.startswith(PREFIX):
            continue
        fields = line[len(PREFIX):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        raw = fields[2]
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > level:
            children.append(pending.pop()[1])
        children.reverse()
        pending.append((level, (raw.strip(), self_us, cum_us, children)))
    return [node for _, node in pending]


def split(text: str, package: str = "gft") -> dict:
    """Seconds spent importing ``package``: total and by package."""
    roots = [n for n in parse(text) if n[0] == package]
    if not roots:
        raise ValueError(f"no top-level import of {package!r} in the -X importtime output")
    buckets = {"numpy": 0, "scipy": 0, package: 0, "other": 0}

    def walk(node):
        name, self_us, cum_us, kids = node
        top = name.split(".")[0]
        if top == package:
            buckets[package] += self_us
            for kid in kids:
                walk(kid)
        else:
            buckets[top if top in buckets else "other"] += cum_us

    walk(roots[-1])
    out = {"total": roots[-1][2] / 1e6}
    out.update({k: v / 1e6 for k, v in buckets.items()})
    return out

"""Guard: the packet path loads packet kinds as module constants.

On CPython 3.11 a ``PacketKind.RTP_VIDEO`` load inside a function costs
about six times a module-global load (``EnumType`` defines ``__getattr__``,
so the specializing interpreter cannot cache it), and the packet path runs
such loads several times per packet per hop.  ``repro.net.packet`` binds
every member as a module constant (``RTP_VIDEO``, ``FEC``, ...); this test
fails on any ``PacketKind.<MEMBER>`` load inside a function body of the
packet-path packages.  Signature defaults, class bodies and module level
run once and stay allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.net.packet import PacketKind

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages on the per-packet path, plus the capture tap.
GUARDED = [
    *(
        path
        for package in ("net", "rtp", "vca", "media", "netem", "apps")
        for path in sorted((SRC / package).rglob("*.py"))
    ),
    SRC / "core" / "capture.py",
]


def _member_loads_in_function_bodies(tree: ast.AST) -> list[int]:
    """Line numbers of ``PacketKind.<MEMBER>`` loads inside any function body."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        for statement in body:
            for inner in ast.walk(statement):
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.ctx, ast.Load)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "PacketKind"
                    and inner.attr in PacketKind.__members__
                ):
                    lines.add(inner.lineno)
    return sorted(lines)


def test_guard_flags_a_load_in_a_function_body_only():
    source = (
        "X = PacketKind.FEC\n"
        "class C:\n"
        "    K = PacketKind.RTCP\n"
        "    def f(self, kind=PacketKind.RTP_VIDEO):\n"
        "        return kind is PacketKind.RTP_AUDIO\n"
        "g = lambda p: p.kind is PacketKind.SIGNALING\n"
    )
    assert _member_loads_in_function_bodies(ast.parse(source)) == [5, 6]


def test_no_packet_kind_member_loads_in_function_bodies():
    assert SRC / "vca" / "sfu" / "node.py" in GUARDED  # the glob reaches subpackages
    offenders = []
    for path in GUARDED:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line in _member_loads_in_function_bodies(tree):
            offenders.append(f"{path.relative_to(SRC.parent.parent)}:{line}")
    assert not offenders, (
        "PacketKind.<MEMBER> loaded inside a function body; use the module "
        "constants of repro.net.packet (RTP_VIDEO, FEC, ...) instead: " + ", ".join(offenders)
    )

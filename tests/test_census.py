"""The reachability census: clean on this repo, and it finds what is planted."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "tools" / "census.py"

_spec = importlib.util.spec_from_file_location("census", SCRIPT)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

PLANTED = {
    "src/repro/__init__.py": "",
    "src/repro/__main__.py": "from repro.cli import main\n\nmain()\n",
    "src/repro/cli.py": (
        "from repro.pkg import Thing, via_init\n\n\n"
        "def main():\n    print(f'{via_init()} {Thing().live()}')\n"
    ),
    "src/repro/pkg/__init__.py": (
        "from repro.pkg.core import Thing, _helper, only_tested, probe, via_init\n"
        "from repro.pkg.orphan import orphan_fn\n\n"
        "__all__ = ['Thing', 'only_tested', 'orphan_fn', 'probe', 'via_init']\n"
    ),
    "src/repro/pkg/core.py": (
        "def via_init():\n    return 1\n\n\n"
        "def _helper():\n    return 2\n\n\n"
        "def only_tested():\n    return _helper()\n\n\n"
        "def probe():\n    return 3\n\n\n"
        "class Thing:\n"
        "    def live(self):\n        '''See also documented_only and \"only_tested\".'''\n        return 4\n\n"
        "    def documented_only(self):\n        return 5  # only_tested? no: a comment is not a use\n"
    ),
    "src/repro/pkg/orphan.py": "def orphan_fn():\n    return 6\n",
    "tests/test_core.py": (
        "from repro.pkg import only_tested, probe\n"
        "from repro.pkg.orphan import orphan_fn\n\n\n"
        "def test_all():\n    assert only_tested() + probe() + orphan_fn()\n"
    ),
    "benchmarks/bench_nothing.py": "import json\n",
    "benchmarks/readiness/tests/test_harness.py": "from repro.pkg.orphan import orphan_fn\n",
}


#: options: each defaulted parameter and constant below is set or read as its name says
KNOBS = {
    "src/repro/knobs.py": (
        "SHOWN = 1\n"
        "TESTED_ONLY = 2\n\n\n"
        "def tune(a, by_position=1, unset=2, *, by_keyword=3, by_test=4):\n"
        "    return a + by_position + unset + by_keyword + by_test + SHOWN\n\n\n"
        "def forwarded(x=0, y=0):\n    return x + y\n\n\n"
        "def handle(event, detail=''):\n    return event + detail\n\n\n"
        "HANDLERS = {'e': handle}\n\n\n"
        "class Knob:\n"
        "    def __init__(self, level=0, spare=1):\n        self.level = level + spare\n\n\n"
        "class Dial(Knob):\n"
        "    def __init__(self, *, label=''):\n        super().__init__(level=2)\n\n\n"
        "def handed(x, rounds=1):\n    return x * rounds\n\n\n"
        "def timed(x, clock=None):\n    return x\n\n\n"
        "def kept(level=0):\n    return level\n\n\n"
        "PLUGINS = {}\n\n\n"
        "class Wide:\n    def __init__(self, width=1):\n        self.width = width\n\n\n"
        "class Deep:\n    def __init__(self, depth=1):\n        self.depth = depth\n\n\n"
        "PLUGINS.setdefault('wide', Wide)\n"
        "PLUGINS['deep'] = Deep\n\n\n"
        "def plugin(name, **options):\n    cls = PLUGINS[name]\n    return cls(**options)\n"
    ),
    "benchmarks/use_knobs.py": (
        "from repro.knobs import HANDLERS, Dial, Knob, forwarded, handed, tune\n\n"
        "options = {'x': 1}\n"
        "facts = {'detail': 'x'}\n"
        "print(tune(0, 5, by_keyword=6), forwarded(**options), HANDLERS['e']('e', **facts))\n"
        "print(Dial(label='d').level, benchmark(handed, 1, rounds=2), timed(1))\n"
        "print(plugin('wide', width=2), plugin('deep', depth=2))\n"
        "print(tune(1, unset=2), Knob(0, 1))  # the defaults, passed: sets nothing\n"
    ),
    "tests/test_knobs.py": (
        "from repro.knobs import TESTED_ONLY, kept, timed, tune\n\n\n"
        "def test_seam():\n    assert tune(0, by_test=TESTED_ONLY) + timed(0, clock=1) + kept()\n"
    ),
}


@pytest.fixture
def planted(tmp_path):
    for name, text in PLANTED.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_this_repo_has_nothing_unreached_outside_keep():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"], capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, ""), done.stdout
    assert len(census.KEEP) <= 12
    for reason in census.KEEP.values():
        assert reason in ("test-seam", "safety") or reason.startswith("pending: ROADMAP item ")


def test_planted_tree_findings(planted):
    found = "\n".join(census.census(planted, {"repro.pkg.core.probe": "test-seam"}))
    assert "module repro.pkg.orphan has no importer" in found
    assert "repro.pkg.core.only_tested is reached by nothing but tests" in found
    assert "repro.pkg.core.Thing.documented_only is reached" in found  # a docstring is no use
    assert "repro.pkg.core._helper is reached" in found  # fixpoint: its only caller is dead
    # used by a root through the package __init__ re-export, or kept: not flagged
    for live in ("via_init", "Thing.live", "Thing is", "probe", "repro.cli"):
        assert live not in found, found
    assert found.count("\n") == 3


def test_planted_parameters_and_constants(planted):
    """A parameter set positionally, by keyword, through ``**`` (by name or via a
    dispatch table filled by a display, ``setdefault`` or ``X[k] = v``), by
    ``super().__init__``, through a callable handed on (``benchmark(f, ..., p=...)``)
    is not reported, nor is a seam-named one only a test sets or one of a ``KEEP``
    entry; one no call sets is, as is one only a test sets or only passed its
    literal default, and so is a constant only a test reads."""
    for name, text in KNOBS.items():
        (planted / name).write_text(text)
    found = census.census(planted, {"repro.pkg.core.probe": "test-seam",
                                    "repro.knobs.kept": "test-seam"})
    assert [line for line in found if "knobs" in line] == [
        "src/repro/knobs.py:2: repro.knobs.TESTED_ONLY is reached by nothing but tests (1 lines)",
        "src/repro/knobs.py:5: repro.knobs.tune: parameter by_test is set by no call",
        "src/repro/knobs.py:5: repro.knobs.tune: parameter unset is set by no call",
        "src/repro/knobs.py:21: repro.knobs.Knob: parameter spare is set by no call",
    ]


def test_keep_table_cannot_rot(planted):
    found = census.census(planted, {
        "repro.pkg.core.via_init": "test-seam",
        "repro.pkg.core.gone": "safety",
        "repro.pkg.core.probe": "test-seam",
    })
    assert "KEEP repro.pkg.core.via_init: reached without it, drop the entry" in found
    assert "KEEP repro.pkg.core.gone: no such definition" in found
    assert not any("probe" in line for line in found)


def test_check_exits_1_and_names_the_definition(planted):
    (planted / "tools").mkdir()
    shutil.copy(SCRIPT, planted / "tools" / "census.py")
    done = subprocess.run(
        [sys.executable, "tools/census.py", "--check"],
        cwd=planted, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "src/repro/pkg/core.py:9: repro.pkg.core.only_tested" in done.stdout
    listing = subprocess.run(
        [sys.executable, "tools/census.py"], cwd=planted, capture_output=True, text=True
    )
    assert (listing.returncode, listing.stdout) == (0, done.stdout)
    usage = subprocess.run(
        [sys.executable, "tools/census.py", "--fix"], cwd=planted, capture_output=True, text=True
    )
    assert usage.returncode == 1 and "Reachability census" in usage.stderr

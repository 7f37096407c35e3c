"""The ``repro.analysis`` invariant linter (reprolint).

Three layers of coverage:

* **Per-rule fixtures** — every shipped rule fires on a positive
  snippet, honors an inline ``# repro: allow(...)`` pragma, and skips
  paths its per-directory config (or whitelist) excludes.
* **Regression fixtures** — the three real bugs this PR fixed
  (global-RNG toy unit, two non-strict ``json.dumps`` sites) stay
  re-detectable: reverting any fix would light the linter up again.
* **Dogfood + output stability** — ``src/repro`` lints clean (the
  blocking CI contract), and the JSON rendering is byte-stable and
  sorted so CI diffs between runs are meaningful.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import (
    ALL_RULE_IDS,
    DEFAULT_CONFIG,
    Finding,
    lint_paths,
    lint_source,
)
from repro.analysis.report import render, render_json
from repro.analysis.rules import get_rules
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: Fixture path that picks up the full default rule set.
LIB = "src/repro/fixture.py"


def rules_fired(path, source, rules=None):
    findings, _ = lint_source(path, source, rules=get_rules(rules))
    return sorted({finding.rule for finding in findings})


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def test_registry_matches_engine_catalog():
    assert tuple(sorted(rule.id for rule in get_rules())) == ALL_RULE_IDS


def test_unknown_rule_filter_rejected():
    with pytest.raises(ValueError, match="no-such-rule"):
        get_rules(["no-such-rule"])


def test_findings_sort_by_path_line_rule():
    a = Finding("b.py", 1, "determinism", "x")
    b = Finding("a.py", 9, "strict-json", "y")
    c = Finding("a.py", 2, "strict-json", "y")
    assert sorted([a, b, c]) == [c, b, a]


def test_syntax_error_becomes_parse_finding():
    findings, _ = lint_source(LIB, "def broken(:\n")
    assert [finding.rule for finding in findings] == ["parse-error"]


def test_ruleset_selection_longest_match_wins():
    config = DEFAULT_CONFIG
    assert config.rules_for("src/repro/serve/engine.py") == ALL_RULE_IDS
    assert "determinism" not in config.rules_for("tests/test_x.py")
    assert "bare-except" not in config.rules_for("benchmarks/test_y.py")
    # Unmatched paths (tmp fixture dirs) get everything.
    assert config.rules_for("/tmp/whatever/snippet.py") == ALL_RULE_IDS


def test_suppression_on_line_and_line_above():
    same_line = "import numpy as np\nx = np.random.rand()  # repro: allow(determinism)\n"
    line_above = (
        "import numpy as np\n"
        "# repro: allow(determinism)\n"
        "x = np.random.rand()\n"
    )
    wrong_id = "import numpy as np\nx = np.random.rand()  # repro: allow(strict-json)\n"
    for source, expected in ((same_line, 1), (line_above, 1), (wrong_id, 0)):
        findings, suppressed = lint_source(LIB, source)
        assert suppressed == expected
        assert bool(findings) == (expected == 0)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_flags_global_numpy_and_stdlib_rng():
    source = (
        "import numpy as np\n"
        "import random\n"
        "a = np.random.rand()\n"
        "b = np.random.randint(4)\n"
        "c = random.random()\n"
    )
    findings, _ = lint_source(LIB, source, rules=get_rules(["determinism"]))
    assert [finding.line for finding in findings] == [3, 4, 5]


def test_determinism_allows_seeded_generators():
    source = (
        "import numpy as np\n"
        "import random\n"
        "rng = np.random.default_rng(7)\n"
        "a = rng.random()\n"
        "r = random.Random(7)\n"
        "b = r.random()\n"
    )
    assert rules_fired(LIB, source) == []


def test_determinism_flags_wall_clock_in_key_helpers_only():
    keyish = (
        "import time\n"
        "def cache_key():\n"
        "    return time.time()\n"
    )
    plain = (
        "import time\n"
        "def elapsed():\n"
        "    return time.time()\n"
    )
    assert rules_fired(LIB, keyish) == ["determinism"]
    assert rules_fired(LIB, plain) == []


def test_determinism_skipped_for_test_paths():
    source = "import numpy as np\nx = np.random.rand()\n"
    assert rules_fired("tests/test_fixture.py", source) == []


# ----------------------------------------------------------------------
# strict-json
# ----------------------------------------------------------------------
def test_strict_json_requires_allow_nan_false():
    bad = "import json\npayload = json.dumps({'a': 1})\n"
    good = "import json\npayload = json.dumps({'a': 1}, allow_nan=False)\n"
    assert rules_fired(LIB, bad) == ["strict-json"]
    assert rules_fired(LIB, good) == []


def test_strict_json_whitelists_io_routing_layer():
    bad = "import json\npayload = json.dumps({'a': 1})\n"
    assert rules_fired("src/repro/experiments/io.py", bad) == []


def test_strict_json_suppression_honored():
    source = (
        "import json\n"
        "payload = json.dumps({'a': 1})  # repro: allow(strict-json)\n"
    )
    findings, suppressed = lint_source(LIB, source)
    assert findings == [] and suppressed == 1


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
GUARDED_CLASS = """\
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._state = 0  # guarded-by: _lock

    def bad(self):
        return self._state

    def good(self):
        with self._lock:
            return self._state

    def _peek_locked(self):
        return self._state
"""


def test_guarded_attr_needs_its_lock():
    findings, _ = lint_source(LIB, GUARDED_CLASS, rules=get_rules(["lock-discipline"]))
    assert [finding.line for finding in findings] == [9]
    assert "_state" in findings[0].message


def test_guarded_attr_suppression_honored():
    source = GUARDED_CLASS.replace(
        "return self._state\n\n    def good",
        "return self._state  # repro: allow(lock-discipline)\n\n    def good",
        1,
    )
    findings, suppressed = lint_source(LIB, source)
    assert findings == [] and suppressed == 1


def test_blocking_calls_while_holding_a_lock():
    source = (
        "import time\n"
        "import threading\n"
        "lock = threading.Lock()\n"
        "def hold(worker_thread, task_queue):\n"
        "    with lock:\n"
        "        time.sleep(1)\n"
        "        worker_thread.join()\n"
        "        task_queue.get()\n"
    )
    findings, _ = lint_source(LIB, source, rules=get_rules(["lock-discipline"]))
    assert [finding.line for finding in findings] == [6, 7, 8]


def test_string_join_and_lease_release_not_flagged():
    source = (
        "def fine(lease, names):\n"
        "    lease.release()\n"
        "    return ', '.join(names)\n"
    )
    assert rules_fired(LIB, source) == []


def test_raw_acquire_release_flagged():
    source = (
        "import threading\n"
        "lock = threading.Lock()\n"
        "def manual():\n"
        "    lock.acquire()\n"
        "    lock.release()\n"
    )
    findings, _ = lint_source(LIB, source, rules=get_rules(["lock-discipline"]))
    assert [finding.line for finding in findings] == [4, 5]


# ----------------------------------------------------------------------
# thread-lifecycle
# ----------------------------------------------------------------------
def test_undaemonized_unjoined_thread_flagged():
    source = (
        "import threading\n"
        "def leak(fn):\n"
        "    threading.Thread(target=fn).start()\n"
    )
    assert rules_fired(LIB, source) == ["thread-lifecycle"]


def test_daemon_or_joined_threads_pass():
    daemon = (
        "import threading\n"
        "def ok(fn):\n"
        "    threading.Thread(target=fn, daemon=True).start()\n"
    )
    joined = (
        "import threading\n"
        "def ok(fn):\n"
        "    t = threading.Thread(target=fn)\n"
        "    t.start()\n"
        "    t.join()\n"
    )
    sibling_join = (
        "import threading\n"
        "class Owner:\n"
        "    def start(self, fn):\n"
        "        self._t = threading.Thread(target=fn)\n"
        "        self._t.start()\n"
        "    def close(self):\n"
        "        self._t.join()\n"
    )
    for source in (daemon, joined, sibling_join):
        assert rules_fired(LIB, source) == []


def test_thread_lifecycle_suppression_honored():
    source = (
        "import threading\n"
        "def fire_and_forget(fn):\n"
        "    # repro: allow(thread-lifecycle)\n"
        "    threading.Thread(target=fn).start()\n"
    )
    findings, suppressed = lint_source(LIB, source)
    assert findings == [] and suppressed == 1


def test_unjoined_process_flagged():
    direct = (
        "import multiprocessing\n"
        "def leak(fn):\n"
        "    multiprocessing.Process(target=fn).start()\n"
    )
    via_context = (
        "import multiprocessing\n"
        "def leak(fn):\n"
        "    ctx = multiprocessing.get_context('fork')\n"
        "    ctx.Process(target=fn).start()\n"
    )
    for source in (direct, via_context):
        assert rules_fired(LIB, source) == ["thread-lifecycle"]


def test_daemon_or_joined_processes_pass():
    daemon = (
        "import multiprocessing\n"
        "def ok(fn):\n"
        "    ctx = multiprocessing.get_context('fork')\n"
        "    ctx.Process(target=fn, daemon=True).start()\n"
    )
    joined = (
        "import multiprocessing\n"
        "def ok(fn):\n"
        "    p = multiprocessing.Process(target=fn)\n"
        "    p.start()\n"
        "    p.join()\n"
    )
    sibling_join = (
        "import multiprocessing\n"
        "class Pool:\n"
        "    def spawn(self, fn):\n"
        "        self._p = multiprocessing.get_context('fork').Process(target=fn)\n"
        "        self._p.start()\n"
        "    def close(self):\n"
        "        self._p.join()\n"
    )
    for source in (daemon, joined, sibling_join):
        assert rules_fired(LIB, source) == []


def test_raw_os_fork_flagged():
    source = (
        "import os\n"
        "def split():\n"
        "    pid = os.fork()\n"
        "    return pid\n"
    )
    assert rules_fired(LIB, source) == ["thread-lifecycle"]
    # join() nearby does not excuse os.fork — it is flagged
    # unconditionally, unlike Thread/Process constructions.
    joined = (
        "import os\n"
        "def split(worker):\n"
        "    pid = os.fork()\n"
        "    worker.join()\n"
        "    return pid\n"
    )
    assert rules_fired(LIB, joined) == ["thread-lifecycle"]


# ----------------------------------------------------------------------
# bare-except
# ----------------------------------------------------------------------
def test_silent_blanket_except_flagged():
    bare = "try:\n    x = 1\nexcept:\n    pass\n"
    blanket = "try:\n    x = 1\nexcept Exception:\n    x = 0\n"
    assert rules_fired(LIB, bare) == ["bare-except"]
    assert rules_fired(LIB, blanket) == ["bare-except"]


def test_handled_blanket_excepts_pass():
    reraise = "try:\n    x = 1\nexcept Exception:\n    raise\n"
    uses_error = (
        "errors = []\n"
        "try:\n    x = 1\nexcept Exception as exc:\n    errors.append(exc)\n"
    )
    logs = (
        "import logging\n"
        "try:\n    x = 1\nexcept Exception:\n    logging.warning('boom')\n"
    )
    for source in (reraise, uses_error, logs):
        assert rules_fired(LIB, source) == []


def test_bare_except_skipped_for_test_paths():
    source = "try:\n    x = 1\nexcept Exception:\n    pass\n"
    assert rules_fired("tests/test_fixture.py", source) == []


# ----------------------------------------------------------------------
# unused-import
# ----------------------------------------------------------------------
def test_unused_import_flagged_per_name():
    source = (
        "import os.path\n"
        "from typing import Dict, List as L\n"
        "def f() -> Dict:\n"
        "    return {}\n"
    )
    findings, _ = lint_source(LIB, source, rules=get_rules(["unused-import"]))
    assert [(finding.line, finding.message) for finding in findings] == [
        (1, "'os' is imported but never used"),
        (2, "'L' is imported but never used"),
    ]


def test_used_imports_pass():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "from repro.serve import ServeConfig, resolve_policy\n"
        "from repro.gateway import ArtifactSpec\n"
        "__all__ = ['resolve_policy']\n"
        "if TYPE_CHECKING:\n"
        "    from repro.serve import ServingSession\n"
        "def f(config: 'Optional[ServeConfig]', s: 'ServingSession'):\n"
        "    spec: ArtifactSpec = None\n"
        "    return np.zeros(1)\n"
    )
    assert rules_fired(LIB, source) == []


def test_unused_import_pragma_and_package_init_exemption():
    source = "import readline  # repro: allow(unused-import)\n"
    findings, suppressed = lint_source(LIB, source)
    assert findings == [] and suppressed == 1
    assert rules_fired("src/repro/fixture/__init__.py", "import os\n") == []
    assert rules_fired("examples/fixture.py", "import os\n") == []


# ----------------------------------------------------------------------
# Regression fixtures: the three satellite bugs stay re-detectable
# ----------------------------------------------------------------------
def test_redetects_global_rng_toy_unit():
    """The pre-fix body of ``runner/testing.py:toy_unit``."""
    reverted = (
        "import numpy as np\n"
        "def toy_unit(value, seed=0):\n"
        "    return {'noise': float(np.random.rand())}\n"
    )
    assert rules_fired("src/repro/runner/testing.py", reverted) == ["determinism"]


def test_redetects_unstrict_cache_key_dumps():
    """The pre-fix ``experiments/presets.py:_cache_key`` call."""
    reverted = (
        "import json\n"
        "def _cache_key(model, seed):\n"
        "    return json.dumps({'model': model, 'seed': seed}, sort_keys=True)\n"
    )
    assert rules_fired("src/repro/experiments/presets.py", reverted) == ["strict-json"]


def test_redetects_unstrict_checkpoint_metadata_dumps():
    """The pre-fix ``utils/checkpoint.py`` metadata serialization."""
    reverted = (
        "import json\n"
        "def save(metadata):\n"
        "    return json.dumps(metadata).encode('utf-8')\n"
    )
    assert rules_fired("src/repro/utils/checkpoint.py", reverted) == ["strict-json"]


# ----------------------------------------------------------------------
# Dogfood: the library, tests and benchmarks lint clean (the blocking CI contract)
# ----------------------------------------------------------------------
def test_src_repro_lints_clean():
    report = lint_paths([SRC])
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert not report.findings, f"repro lint src/repro found:\n{rendered}"
    assert report.files > 90  # the walker actually visited the tree


def test_tests_and_benchmarks_lint_clean():
    report = lint_paths([REPO_ROOT / "tests", REPO_ROOT / "benchmarks"])
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert not report.findings, f"repro lint tests/ benchmarks/ found:\n{rendered}"


# ----------------------------------------------------------------------
# Output stability
# ----------------------------------------------------------------------
def test_json_output_stable_and_sorted(tmp_path):
    messy = tmp_path / "b_module.py"
    messy.write_text(
        "import json\n"
        "import numpy as np\n"
        "x = np.random.rand()\n"
        "y = json.dumps({'x': 1})\n"
    )
    other = tmp_path / "a_module.py"
    other.write_text("import json\nz = json.dumps({'z': 2})\n")

    first = render_json(lint_paths([tmp_path]))
    second = render_json(lint_paths([tmp_path]))
    assert first == second  # byte-stable across runs

    document = json.loads(first)
    locations = [
        (finding["path"], finding["line"], finding["rule"])
        for finding in document["findings"]
    ]
    assert locations == sorted(locations)
    assert document["total"] == 3
    assert document["counts"] == {"determinism": 1, "strict-json": 2}
    # Keys are serialized sorted, so textual diffs never churn on order.
    assert first.index('"counts"') < first.index('"findings"') < first.index('"total"')


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        render(lint_paths([]), "yaml")


# ----------------------------------------------------------------------
# CLI + runner unit family
# ----------------------------------------------------------------------
def test_cli_lint_clean_exits_zero(capsys):
    assert main(["lint", str(SRC), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["total"] == 0


def test_cli_lint_findings_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.rand()\n")
    assert main(["lint", str(bad)]) == 1
    assert "[determinism]" in capsys.readouterr().out


def test_cli_lint_rule_filter(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import json, numpy as np\nx = np.random.rand()\n")
    assert main(["lint", str(bad), "--rule", "strict-json"]) == 0
    capsys.readouterr()


def test_cli_lint_missing_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err

"""Fixture tests for every `repro lint` rule.

Each rule ships with three fixtures: a **true positive** (the analyzer
flags the violation), a **true negative** (idiomatic compliant code is
not flagged), and a **suppression** (the same violation with an inline
``# repro: noqa[RULE]`` on the flagged line reports nothing).  Scoped
rules get their fixtures written at matching relative paths (e.g.
``pipeline/…``) and a scope-miss check proving the rule stays quiet
outside its blast radius.
"""

import pytest

from repro.analysis.lint import lint_paths, rule_ids


def run_fixture(tmp_path, relpath, source):
    file = tmp_path / relpath
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(source)
    return lint_paths([tmp_path])


def suppress(source, lineno, rule_id):
    """``source`` with an inline noqa appended to the flagged line."""
    lines = source.splitlines()
    lines[lineno - 1] += f"  # repro: noqa[{rule_id}] -- fixture justification"
    return "\n".join(lines) + "\n"


# (rule id, relative path the fixture must live at, bad source, good source)
FIXTURES = {
    "D101": (
        "rng.py",
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)\n",
        "import numpy as np\n"
        "def pick(items, seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return items[rng.integers(len(items))]\n",
    ),
    "D102": (
        "pipeline/clock.py",
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n",
        "import time\n"
        "def duration(start):\n"
        "    return time.monotonic() - start\n",
    ),
    "D103": (
        "walk.py",
        "from pathlib import Path\n"
        "def names(root):\n"
        "    return [p.name for p in Path(root).glob('*.py')]\n",
        "from pathlib import Path\n"
        "def names(root):\n"
        "    return [p.name for p in sorted(Path(root).glob('*.py'))]\n",
    ),
    "D104": (
        "pipeline/serde.py",
        "import json\n"
        "def canonical(payload):\n"
        "    return json.dumps(payload)\n",
        "import json\n"
        "def canonical(payload):\n"
        "    return json.dumps(payload, sort_keys=True)\n",
    ),
    "D105": (
        "labels.py",
        "def label(names):\n"
        "    return ','.join(set(names))\n",
        "def label(names):\n"
        "    return ','.join(sorted(set(names)))\n",
    ),
    "S201": (
        "anywhere.py",
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class FooSpec:\n"
        "    x: int = 0\n",
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class FooSpec:\n"
        "    x: int = 0\n",
    ),
    "S202": (
        "spec.py",
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "def _register(cls):\n"
        "    return cls\n"
        "@dataclass(frozen=True)\n"
        "class FooSpec:\n"
        "    kind: ClassVar[str] = 'foo'\n"
        "    x: int = 0\n",
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "def _register(cls):\n"
        "    return cls\n"
        "@_register\n"
        "@dataclass(frozen=True)\n"
        "class FooSpec:\n"
        "    kind: ClassVar[str] = 'foo'\n"
        "    x: int = 0\n",
    ),
    "S203": (
        "anywhere.py",
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class FooSpec:\n"
        "    x: int = 0\n"
        "    y: int = 1\n"
        "    def to_dict(self):\n"
        "        return {'x': self.x}\n",
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class FooSpec:\n"
        "    x: int = 0\n"
        "    y: int = 1\n"
        "    def to_dict(self):\n"
        "        return {'x': self.x, 'y': self.y}\n",
    ),
    "W301": (
        "fanout.py",
        "def run(pool, items):\n"
        "    return [pool.submit(lambda i: i + 1, item) for item in items]\n",
        "def work(i):\n"
        "    return i + 1\n"
        "def run(pool, items):\n"
        "    return [pool.submit(work, item) for item in items]\n",
    ),
    "W302": (
        "pipeline/state.py",
        "_cache = None\n"
        "def set_cache(value):\n"
        "    global _cache\n"
        "    _cache = value\n",
        "def with_cache(cache, value):\n"
        "    return {**cache, 'value': value}\n",
    ),
    "W303": (
        "service/handler.py",
        "import time\n"
        "async def poll(job, path):\n"
        "    time.sleep(0.1)\n"
        "    body = path.read_text()\n"
        "    with open(path) as fp:\n"
        "        extra = fp.read()\n"
        "    return body + extra\n",
        "import asyncio\n"
        "def _read(path):\n"
        "    return path.read_text()\n"
        "async def poll(job, path):\n"
        "    await asyncio.sleep(0.1)\n"
        "    return await asyncio.to_thread(_read, path)\n",
    ),
    "P401": (
        "pipeline/ledger.py",
        "def flush(store, manifest):\n"
        "    _write_manifest(manifest)\n"
        "def _write_manifest(manifest):\n"
        "    pass\n",
        "def flush(store, manifest):\n"
        "    with store.lock:\n"
        "        _write_manifest(manifest)\n"
        "def _write_manifest(manifest):\n"
        "    pass\n",
    ),
}


def test_every_registered_rule_has_fixtures():
    assert set(FIXTURES) == set(rule_ids())


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
class TestRuleFixtures:
    def test_true_positive(self, tmp_path, rule_id):
        relpath, bad, _ = FIXTURES[rule_id]
        findings = run_fixture(tmp_path, relpath, bad)
        assert findings, f"{rule_id} missed its true positive"
        assert {f.rule for f in findings} == {rule_id}
        assert all(f.path == relpath for f in findings)
        assert all(f.line > 0 for f in findings)

    def test_true_negative(self, tmp_path, rule_id):
        relpath, _, good = FIXTURES[rule_id]
        findings = run_fixture(tmp_path, relpath, good)
        assert [f for f in findings if f.rule == rule_id] == []

    def test_noqa_suppression(self, tmp_path, rule_id):
        relpath, bad, _ = FIXTURES[rule_id]
        flagged = run_fixture(tmp_path, relpath, bad)
        suppressed = bad
        # Suppress every reported line (deepest first keeps numbering).
        for finding in sorted(flagged, key=lambda f: -f.line):
            suppressed = suppress(suppressed, finding.line, rule_id)
        (tmp_path / relpath).write_text(suppressed)
        assert lint_paths([tmp_path]) == []


class TestScopedRulesStayInScope:
    """A scoped rule's bad fixture is clean outside the rule's scope."""

    @pytest.mark.parametrize("rule_id", ["D102", "D104", "W302", "W303", "P401"])
    def test_scope_miss(self, tmp_path, rule_id):
        _, bad, _ = FIXTURES[rule_id]
        findings = run_fixture(tmp_path, "elsewhere.py", bad)
        assert [f for f in findings if f.rule == rule_id] == []

    def test_s202_only_in_spec_modules(self, tmp_path):
        _, bad, _ = FIXTURES["S202"]
        findings = run_fixture(tmp_path, "models.py", bad)
        assert [f for f in findings if f.rule == "S202"] == []


#: S202 under the registry-object form the spec modules use
#: (``@PREDICTORS.register``); ``FIXTURES["S202"]`` keeps the function form.
S202_REGISTRY_FORM = (
    "from dataclasses import dataclass\n"
    "from typing import ClassVar\n"
    "from repro.specbase import Registry\n"
    "PREDICTORS = Registry('predictor')\n"
    "{decorator}"
    "@dataclass(frozen=True, slots=True)\n"
    "class FooSpec:\n"
    "    kind: ClassVar[str] = 'foo'\n"
    "    x: int = 0\n"
)


class TestS202RegistryForm:
    def test_registered_through_the_registry_is_clean(self, tmp_path):
        source = S202_REGISTRY_FORM.format(decorator="@PREDICTORS.register\n")
        findings = run_fixture(tmp_path, "spec.py", source)
        assert [f for f in findings if f.rule == "S202"] == []

    @pytest.mark.parametrize(
        "decorator", ["", "@functools.total_ordering\n", "@PREDICTORS.lookup\n"]
    )
    def test_unregistered_kind_is_flagged(self, tmp_path, decorator):
        source = S202_REGISTRY_FORM.format(decorator=decorator)
        findings = run_fixture(tmp_path, "workload_spec.py", source)
        assert [f.rule for f in findings if f.rule == "S202"] == ["S202"]


class TestW303Semantics:
    def test_sync_helper_nested_in_async_is_clean(self, tmp_path):
        # The fix W303 recommends — hoist blocking work into a sync
        # function and to_thread it — must itself be clean, even when
        # the helper is nested inside the coroutine.
        source = (
            "import asyncio\n"
            "async def handler(path):\n"
            "    def read():\n"
            "        with open(path) as fp:\n"
            "            return fp.read()\n"
            "    return await asyncio.to_thread(read)\n"
        )
        findings = run_fixture(tmp_path, "service/h.py", source)
        assert [f for f in findings if f.rule == "W303"] == []

    def test_w303_findings_are_baselinable(self, tmp_path):
        from repro.analysis.lint import (
            filter_baselined,
            load_baseline,
            write_baseline,
        )

        relpath, bad, _ = FIXTURES["W303"]
        findings = run_fixture(tmp_path, relpath, bad)
        assert findings
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, findings)
        kept, absorbed = filter_baselined(
            lint_paths([tmp_path]), load_baseline(baseline_path)
        )
        assert kept == [] and absorbed == len(findings)


class TestRuleEdgeCases:
    def test_d101_flags_numpy_legacy_and_bare_default_rng(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def noise(n):\n"
            "    np.random.seed(0)\n"
            "    a = np.random.rand(n)\n"
            "    rng = np.random.default_rng()\n"
            "    return a, rng\n"
        )
        findings = run_fixture(tmp_path, "noise.py", source)
        assert [f.line for f in findings if f.rule == "D101"] == [3, 4, 5]

    def test_d101_allows_seeded_random_instance(self, tmp_path):
        source = (
            "import random\n"
            "def pick(items, seed):\n"
            "    return random.Random(seed).choice(items)\n"
        )
        # random.Random(seed) is an explicit stream; .choice on the
        # instance is an attribute of a call, not the module.
        findings = run_fixture(tmp_path, "rng.py", source)
        assert [f for f in findings if f.rule == "D101"] == []

    def test_d103_allows_order_insensitive_aggregates(self, tmp_path):
        source = (
            "import os\n"
            "from pathlib import Path\n"
            "def census(root):\n"
            "    return len(os.listdir(root)), set(Path(root).iterdir())\n"
        )
        findings = run_fixture(tmp_path, "census.py", source)
        assert [f for f in findings if f.rule == "D103"] == []

    def test_d105_flags_for_loop_and_comprehension(self, tmp_path):
        source = (
            "def order(xs):\n"
            "    out = []\n"
            "    for x in set(xs):\n"
            "        out.append(x)\n"
            "    return out + [y for y in {1, 2, 3}]\n"
        )
        findings = run_fixture(tmp_path, "order.py", source)
        assert [f.line for f in findings if f.rule == "D105"] == [3, 5]

    def test_d105_allows_sorted_sets_and_membership(self, tmp_path):
        source = (
            "def order(xs):\n"
            "    present = 3 in set(xs)\n"
            "    return sorted(set(xs)), present\n"
        )
        findings = run_fixture(tmp_path, "order.py", source)
        assert [f for f in findings if f.rule == "D105"] == []

    def test_s201_ignores_non_spec_and_non_dataclass_classes(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class MutableConfig:\n"
            "    x: int = 0\n"
            "class BareSpec:\n"
            "    pass\n"
        )
        findings = run_fixture(tmp_path, "other.py", source)
        assert [f for f in findings if f.rule == "S201"] == []

    def test_s203_accepts_generic_fields_iteration(self, tmp_path):
        source = (
            "import dataclasses\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    x: int = 0\n"
            "    y: int = 1\n"
            "    def to_dict(self):\n"
            "        return {f.name: getattr(self, f.name)"
            " for f in dataclasses.fields(self)}\n"
        )
        findings = run_fixture(tmp_path, "spec.py", source)
        assert [f for f in findings if f.rule == "S203"] == []

    def test_w301_flags_nested_function_and_partial_lambda(self, tmp_path):
        source = (
            "from functools import partial\n"
            "def run(pool, item):\n"
            "    def work(i):\n"
            "        return i + 1\n"
            "    a = pool.submit(work, item)\n"
            "    b = pool.submit(partial(lambda i: i, item))\n"
            "    return a, b\n"
        )
        findings = run_fixture(tmp_path, "fanout.py", source)
        assert [f.line for f in findings if f.rule == "W301"] == [5, 6]

    def test_w301_allows_module_level_callables(self, tmp_path):
        source = (
            "def work(i):\n"
            "    return i + 1\n"
            "def run(pool, session, trace, spec):\n"
            "    session.submit(trace, spec)\n"
            "    return pool.submit(work, 1)\n"
        )
        findings = run_fixture(tmp_path, "fanout.py", source)
        assert [f for f in findings if f.rule == "W301"] == []

    def test_p401_flags_report_save_outside_lock(self, tmp_path):
        source = (
            "def checkpoint(store, report):\n"
            "    report.save(store.root)\n"
        )
        findings = run_fixture(tmp_path, "pipeline/ckpt.py", source)
        assert [f.rule for f in findings] == ["P401"]

    def test_p401_allows_locked_report_save(self, tmp_path):
        source = (
            "def checkpoint(store, report):\n"
            "    with store.lock:\n"
            "        return report.save(store.root)\n"
        )
        findings = run_fixture(tmp_path, "pipeline/ckpt.py", source)
        assert findings == []

    def test_d102_allows_strftime_and_monotonic(self, tmp_path):
        source = (
            "import time\n"
            "def metadata_stamp():\n"
            "    return time.strftime('%Y', time.gmtime(0))\n"
        )
        findings = run_fixture(tmp_path, "pipeline/meta.py", source)
        assert [f for f in findings if f.rule == "D102"] == []

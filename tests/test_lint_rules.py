"""The project linter: every rule fires on a bad fixture, stays quiet on a
good one, and the suppression mechanisms (pragmas, allowlist) behave.

Ends with the self-check: ``python -m repro.lint src/`` must exit clean on
this repository, which is exactly the gate CI runs.
"""

import json
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from repro.lint import RULES, lint_paths, load_allowlist
from repro.lint.engine import Allowlist, AllowlistEntry
from repro.lint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root, files):
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text), encoding="utf-8")


def run_lint(tmp_path, files, rule=None):
    write_tree(tmp_path, files)
    rules = [RULES[rule]] if rule else None
    return lint_paths([tmp_path / "src"], root=tmp_path, rules=rules)


def rule_hits(report, rule):
    return [v for v in report.violations if v.rule == rule]


# ------------------------------------------------------------- seam-bypass
class TestSeamBypass:
    def test_direct_eigh_and_inv_fire(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/aoa/thing.py": """
            import numpy as np

            def f(m):
                values, vectors = np.linalg.eigh(m)
                return np.linalg.inv(m)
            """}, rule="seam-bypass")
        assert len(rule_hits(report, "seam-bypass")) == 2
        assert "kernels.eigh" in report.violations[0].message

    def test_fft_transforms_fire_but_fftfreq_is_free(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/phy/thing.py": """
            import numpy as np

            def f(x):
                grid = np.fft.fftfreq(x.size)
                return np.fft.ifft(np.fft.fft(x)) * grid
            """}, rule="seam-bypass")
        assert len(rule_hits(report, "seam-bypass")) == 2

    def test_matmul_fires_only_on_hot_path_modules(self, tmp_path):
        hot = """
            import numpy as np

            def f(a, b):
                return a @ b + np.matmul(a, b)
            """
        report = run_lint(tmp_path, {"src/repro/aoa/batch.py": hot,
                                     "src/repro/core/cold.py": hot},
                          rule="seam-bypass")
        hits = rule_hits(report, "seam-bypass")
        assert len(hits) == 2
        assert all(v.path.endswith("aoa/batch.py") for v in hits)

    def test_backend_module_itself_is_exempt(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/kernels/backend.py": """
            import numpy as np

            def eigh(m):
                return np.linalg.eigh(m)
            """}, rule="seam-bypass")
        assert report.violations == []

    def test_clean_module_passes(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/aoa/clean.py": """
            from repro.kernels.backend import kernels

            def f(m):
                return kernels.eigh(m)
            """}, rule="seam-bypass")
        assert report.violations == []


# ---------------------------------------------------------- rng-discipline
class TestRngDiscipline:
    def test_legacy_globals_fire(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            import numpy as np

            def f():
                np.random.seed(0)
                return np.random.rand(3), np.random.normal(0.0, 1.0)
            """}, rule="rng-discipline")
        assert len(rule_hits(report, "rng-discipline")) == 3

    def test_default_rng_outside_utils_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """}, rule="rng-discipline")
        assert len(rule_hits(report, "rng-discipline")) == 1
        assert "derive_seed" in report.violations[0].message

    def test_seed_sequence_outside_utils_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            import numpy as np

            def f(root, ordinal):
                return np.random.SeedSequence(root, spawn_key=(ordinal,))
            """}, rule="rng-discipline")
        assert len(rule_hits(report, "rng-discipline")) == 1
        assert "keyed_rng" in report.violations[0].message

    def test_default_rng_inside_utils_rng_is_allowed(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/utils/rng.py": """
            import numpy as np

            def ensure_rng(seed):
                return np.random.default_rng(seed)

            def derive_seed(rng):
                return int(rng.integers(0, 2**63 - 1))
            """}, rule="rng-discipline")
        assert report.violations == []

    def test_hand_rolled_spawn_derivation_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            def f(rng):
                return int(rng.integers(0, 2**31 - 1))
            """}, rule="rng-discipline")
        assert len(rule_hits(report, "rng-discipline")) == 1

    def test_ordinary_integers_draws_are_fine(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            def f(rng):
                return rng.integers(0, 2, size=64)
            """}, rule="rng-discipline")
        assert report.violations == []

    def test_bit_generator_calls_outside_utils_fire(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            import numpy as np

            def f(seed):
                return np.random.Generator(np.random.SFC64(seed))

            def g(seed):
                return [np.random.PCG64(seed), np.random.PCG64DXSM(seed),
                        np.random.Philox(seed), np.random.MT19937(seed)]
            """}, rule="rng-discipline")
        hits = rule_hits(report, "rng-discipline")
        assert len(hits) == 6
        assert all("keyed_noise_rng" in hit.message for hit in hits)

    def test_bit_generator_calls_inside_utils_rng_are_allowed(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/utils/rng.py": """
            import numpy as np

            def keyed_noise_rng(root, *key):
                return np.random.Generator(np.random.SFC64(
                    np.random.SeedSequence(root, spawn_key=key)))
            """}, rule="rng-discipline")
        assert report.violations == []

    def test_generator_type_annotation_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            from typing import Optional

            import numpy as np

            def f(rng: np.random.Generator) -> Optional[np.random.Generator]:
                return rng if isinstance(rng, np.random.Generator) else None
            """}, rule="rng-discipline")
        assert report.violations == []


# ------------------------------------------------- numpy import spellings
#: (rule, owner module, source, violations outside the owner): every way of
#: binding a numpy member resolves to the same dotted path for both rules.
NUMPY_IMPORT_FORMS = {
    "from-numpy-random": ("rng-discipline", "src/repro/utils/rng.py", """
        from numpy.random import SFC64, Generator, default_rng

        def f(seed):
            return Generator(SFC64(seed)), default_rng(seed)
        """, 3),
    "numpy-random-alias": ("rng-discipline", "src/repro/utils/rng.py", """
        import numpy.random as npr

        def f(seed):
            return npr.default_rng(seed), npr.Generator(npr.PCG64(seed))
        """, 3),
    "from-numpy-linalg": ("seam-bypass", "src/repro/kernels/backend.py", """
        from numpy.linalg import eigh

        def f(m):
            return eigh(m)
        """, 1),
    "numpy-linalg-alias": ("seam-bypass", "src/repro/kernels/backend.py", """
        import numpy.linalg as la

        def f(m):
            return la.eigh(m), la.inv(m)
        """, 2),
    "from-numpy-fft": ("seam-bypass", "src/repro/kernels/backend.py", """
        from numpy.fft import fft, fftfreq

        def f(x):
            return fft(x) * fftfreq(x.size)
        """, 1),
}


class TestNumpyImportForms:
    @pytest.mark.parametrize("form", sorted(NUMPY_IMPORT_FORMS))
    def test_form_outside_its_owner_fires(self, tmp_path, form):
        rule, _, source, expected = NUMPY_IMPORT_FORMS[form]
        report = run_lint(tmp_path, {"src/repro/core/thing.py": source}, rule=rule)
        assert len(rule_hits(report, rule)) == expected

    @pytest.mark.parametrize("form", sorted(NUMPY_IMPORT_FORMS))
    def test_form_inside_its_owner_is_allowed(self, tmp_path, form):
        rule, owner, source, _ = NUMPY_IMPORT_FORMS[form]
        report = run_lint(tmp_path, {owner: source}, rule=rule)
        assert report.violations == []

    def test_from_imported_legacy_global_fires_even_in_the_owner(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/utils/rng.py": """
            from numpy.random import seed

            def f():
                seed(0)
            """}, rule="rng-discipline")
        assert len(rule_hits(report, "rng-discipline")) == 1

    def test_from_imported_generator_annotation_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/core/thing.py": """
            from numpy.random import Generator

            def f(rng: Generator) -> Generator:
                return rng
            """}, rule="rng-discipline")
        assert report.violations == []


# ----------------------------------------------------------- atomic-write
class TestAtomicWrite:
    def test_bare_open_write_in_campaign_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            def save(path, text):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            """}, rule="atomic-write")
        assert len(rule_hits(report, "atomic-write")) == 1

    def test_write_text_in_campaign_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            def save(path, text):
                path.write_text(text)
            """}, rule="atomic-write")
        assert len(rule_hits(report, "atomic-write")) == 1

    def test_tmp_plus_replace_idiom_is_recognised(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            import os

            def save(path, text):
                temp = str(path) + ".tmp"
                with open(temp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(temp, path)
            """}, rule="atomic-write")
        assert report.violations == []

    def test_reads_and_appends_are_free(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            def tail(path):
                with open(path, "r", encoding="utf-8") as fh:
                    body = fh.read()
                with open(path, "ab") as fh:
                    fh.write(b"x")
                return body
            """}, rule="atomic-write")
        assert report.violations == []

    def test_outside_campaign_package_is_free(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/utils/thing.py": """
            def save(path, text):
                path.write_text(text)
            """}, rule="atomic-write")
        assert report.violations == []

    def test_os_rename_counts_as_the_idiom(self, tmp_path):
        # The file queue claims tasks and defers retries via os.rename;
        # a write inside such a function IS the atomic idiom.
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            import os

            def requeue_with_backoff(task_path, text):
                temp = str(task_path) + ".tmp"
                with open(temp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.rename(temp, task_path)
            """}, rule="atomic-write")
        assert report.violations == []

    def test_bare_heartbeat_write_fires(self, tmp_path):
        # A liveness beacon written non-atomically can be read torn by the
        # coordinator's staleness check — the rule must catch the shortcut.
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            import time

            def beat(heartbeat_path):
                heartbeat_path.write_text(f"{time.time():.3f}")
            """}, rule="atomic-write")
        assert len(rule_hits(report, "atomic-write")) == 1

    def test_documented_torn_debris_writer_is_suppressed(self, tmp_path):
        # The chaos worker's crash-mid-write fault writes torn debris on
        # purpose; the pragma documents that and is counted, not ignored.
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            def crash_mid_write(torn_path, text):
                torn_path.write_text(text[: len(text) // 2])  # repro-lint: disable=atomic-write
            """}, rule="atomic-write")
        assert report.violations == []
        assert report.suppressed_by_pragma == 1


class TestAtomicWriteInServe:
    def test_announce_write_text_in_serve_fires(self, tmp_path):
        # The announce file is polled by clients racing server startup; a
        # torn document would crash their JSON parse.
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            def announce(path, text):
                path.write_text(text)
            """}, rule="atomic-write")
        assert len(rule_hits(report, "atomic-write")) == 1

    def test_tmp_plus_replace_in_serve_is_the_idiom(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            import os

            def announce(path, text):
                tmp = str(path) + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, path)
            """}, rule="atomic-write")
        assert report.violations == []


# ----------------------------------------------------------- async-blocking
class TestAsyncBlocking:
    def test_time_sleep_in_async_def_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            import time

            async def worker():
                time.sleep(0.1)
            """}, rule="async-blocking")
        hits = rule_hits(report, "async-blocking")
        assert len(hits) == 1
        assert "asyncio.sleep" in hits[0].message

    def test_asyncio_sleep_is_free(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            import asyncio

            async def worker():
                await asyncio.sleep(0.1)
            """}, rule="async-blocking")
        assert report.violations == []

    def test_open_and_path_io_in_async_def_fire(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            async def snapshot(path, out):
                body = path.read_text()
                with open(out, "w") as fh:
                    fh.write(body)
                out.write_bytes(b"")
            """}, rule="async-blocking")
        assert len(rule_hits(report, "async-blocking")) == 3

    def test_subprocess_in_async_def_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            import subprocess

            async def shell(cmd):
                return subprocess.run(cmd)
            """}, rule="async-blocking")
        assert len(rule_hits(report, "async-blocking")) == 1

    def test_sync_helper_nested_in_async_def_is_free(self, tmp_path):
        # A sync def nested inside a coroutine is not loop-resident per se
        # (it may be handed to run_in_executor); only direct calls in the
        # async body are flagged.
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            import asyncio

            async def snapshot(path, text):
                def write():
                    path.write_text(text)
                await asyncio.get_running_loop().run_in_executor(None, write)
            """}, rule="async-blocking")
        assert report.violations == []

    def test_sync_functions_in_serve_are_free(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            import time

            def wait_for_file(path, timeout_s):
                time.sleep(timeout_s)
                return path.read_text()
            """}, rule="async-blocking")
        assert report.violations == []

    def test_outside_serve_package_is_free(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/campaign/thing.py": """
            import time

            async def worker():
                time.sleep(0.1)
            """}, rule="async-blocking")
        assert report.violations == []

    def test_pragma_suppression_works(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/serve/thing.py": """
            import time

            async def calibrated_stall():
                time.sleep(0.001)  # repro-lint: disable=async-blocking
            """}, rule="async-blocking")
        assert report.violations == []
        assert report.suppressed_by_pragma == 1


# ------------------------------------------------- frozen-config-mutation
class TestFrozenConfigMutation:
    def test_setattr_outside_frozen_body_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/api/thing.py": """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ThingConfig:
                value: int = 0

            def mutate(config):
                object.__setattr__(config, "value", 1)
            """}, rule="frozen-config-mutation")
        assert len(rule_hits(report, "frozen-config-mutation")) == 1

    def test_post_init_canonicalisation_is_allowed(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/api/thing.py": """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ThingConfig:
                value: int = 0

                def __post_init__(self):
                    object.__setattr__(self, "value", int(self.value))
            """}, rule="frozen-config-mutation")
        assert report.violations == []

    def test_attribute_assignment_on_config_instance_fires(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/api/thing.py": """
            from repro.aoa.estimator import EstimatorConfig

            def build():
                config = EstimatorConfig()
                config.resolution_deg = 0.5
                return config
            """}, rule="frozen-config-mutation")
        assert len(rule_hits(report, "frozen-config-mutation")) == 1
        assert "dataclasses.replace" in report.violations[0].message

    def test_replace_idiom_passes(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/api/thing.py": """
            from dataclasses import replace

            from repro.aoa.estimator import EstimatorConfig

            def build():
                config = EstimatorConfig()
                return replace(config, resolution_deg=0.5)
            """}, rule="frozen-config-mutation")
        assert report.violations == []


# ------------------------------------------------- registry-completeness
class TestRegistryCompleteness:
    def test_unlisted_campaign_registration_fires(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/campaign/adapters.py": """
                CAMPAIGNS = object()
                CAMPAIGNS.register("figure5", None)
                CAMPAIGNS.register("brand_new", None)
                """,
            "tests/test_campaign_conformance.py": """
                TINY = {"figure5": {}}
                """,
        }, rule="registry-completeness")
        hits = rule_hits(report, "registry-completeness")
        assert len(hits) == 1
        assert "brand_new" in hits[0].message

    def test_auto_discovering_suite_covers_everything(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/api/components.py": """
                AOA_METHODS = object()
                AOA_METHODS.register("music", None)
                AOA_METHODS.register("novel_method", None)
                """,
            "tests/test_api_registries.py": """
                from repro.api import AOA_METHODS

                def test_all():
                    for name, method in AOA_METHODS.items():
                        assert method is not None
                """,
        }, rule="registry-completeness")
        assert report.violations == []

    def test_missing_tests_tree_skips_quietly(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/campaign/adapters.py": """
                CAMPAIGNS = object()
                CAMPAIGNS.register("orphan", None)
                """,
        }, rule="registry-completeness")
        assert report.violations == []


# ------------------------------------------------------------ suppression
class TestSuppression:
    BAD = """
        import numpy as np

        def f(m):
            return np.linalg.eigh(m)  # repro-lint: disable=seam-bypass
        """

    def test_pragma_suppresses_and_is_counted(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/aoa/thing.py": self.BAD},
                          rule="seam-bypass")
        assert report.violations == []
        assert report.suppressed_by_pragma == 1

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/aoa/thing.py": """
            import numpy as np

            def f(m):
                return np.linalg.eigh(m)  # repro-lint: disable=rng-discipline
            """}, rule="seam-bypass")
        assert len(report.violations) == 1

    def test_quoted_pragma_suppresses_nothing(self, tmp_path):
        report = run_lint(tmp_path, {"src/repro/aoa/thing.py": """
            import numpy as np

            def f(m):
                return np.linalg.eigh(m), "# repro-lint: disable=seam-bypass"

            def g(m):
                return np.linalg.eigh(m), "#"  # repro-lint: disable=seam-bypass
            """}, rule="seam-bypass")
        assert [v.line for v in report.violations] == [5]
        assert report.suppressed_by_pragma == 1

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_line_separator_in_a_string_keeps_pragma_lines(self, tmp_path,
                                                            separator):
        # str.splitlines breaks on these, Python's tokenizer does not: the
        # pragma must stay on the line the violation is reported on.
        report = run_lint(tmp_path, {"src/repro/aoa/thing.py": f"""
            import numpy as np

            LABEL = "a{separator}b"

            def f(m):
                return np.linalg.eigh(m)  # repro-lint: disable=seam-bypass

            def g(m):
                return np.linalg.eigh(m)
            """}, rule="seam-bypass")
        assert [v.line for v in report.violations] == [10]
        assert report.suppressed_by_pragma == 1

    def test_pragma_naming_no_registered_rule_is_a_violation(self, tmp_path):
        # A typo, or a rule since deleted: the pragma suppresses nothing and
        # must not linger.  Reported whichever rules run, and "all" is known.
        report = run_lint(tmp_path, {"src/repro/aoa/thing.py": """
            import numpy as np

            def f(m):
                x = m + 1  # repro-lint: disable=precision-discipline
                y = m + 2  # repro-lint: disable=all
                return np.linalg.eigh(m)  # repro-lint: disable=seam-bypass,seam-bypas
            """}, rule="rng-discipline")
        assert [(v.rule, v.line) for v in report.violations] == [
            ("unknown-pragma", 5), ("unknown-pragma", 7)]
        assert "'precision-discipline'" in report.violations[0].message
        assert "'seam-bypas'" in report.violations[1].message
        assert report.exit_code == 1

    def test_allowlist_suppresses_whole_file(self, tmp_path):
        write_tree(tmp_path, {"src/repro/aoa/thing.py": """
            import numpy as np

            def f(m):
                return np.linalg.eigh(np.linalg.inv(m))
            """})
        allowlist = Allowlist(entries=(AllowlistEntry(
            rule="seam-bypass", path="src/repro/aoa/thing.py",
            reason="fixture"),))
        report = lint_paths([tmp_path / "src"], root=tmp_path,
                            allowlist=allowlist,
                            rules=[RULES["seam-bypass"]])
        assert report.violations == []
        assert report.suppressed_by_allowlist == 2
        assert report.unused_allowlist == []

    def test_unused_allowlist_entries_are_reported(self, tmp_path):
        write_tree(tmp_path, {"src/repro/aoa/clean.py": "x = 1\n"})
        allowlist = Allowlist(entries=(AllowlistEntry(
            rule="seam-bypass", path="src/repro/aoa/gone.py",
            reason="stale"),))
        report = lint_paths([tmp_path / "src"], root=tmp_path,
                            allowlist=allowlist)
        assert [entry.path for entry in report.unused_allowlist] == [
            "src/repro/aoa/gone.py"]

    def test_allowlist_requires_reasons(self, tmp_path):
        path = tmp_path / ".repro-lint.json"
        path.write_text(json.dumps({"version": 1, "entries": [
            {"rule": "seam-bypass", "path": "src/x.py", "reason": "  "}]}))
        with pytest.raises(ValueError, match="reason"):
            load_allowlist(path)

    def test_allowlist_rejects_unknown_rules(self, tmp_path):
        path = tmp_path / ".repro-lint.json"
        path.write_text(json.dumps({"version": 1, "entries": [
            {"rule": "no-such-rule", "path": "src/x.py", "reason": "r"}]}))
        with pytest.raises(ValueError, match="unknown rule"):
            load_allowlist(path)

    def test_repo_allowlist_parses_and_documents_reasons(self):
        allowlist = load_allowlist(REPO_ROOT / ".repro-lint.json")
        assert allowlist.entries, "repo allowlist should document exceptions"
        for entry in allowlist.entries:
            assert len(entry.reason) > 20, entry


# -------------------------------------------------------------------- CLI
class TestCli:
    def test_json_output_schema(self, tmp_path, capsys, monkeypatch):
        write_tree(tmp_path, {"src/repro/aoa/thing.py": """
            import numpy as np

            def f(m):
                return np.linalg.eigh(m)
            """})
        monkeypatch.chdir(tmp_path)
        exit_code = lint_main(["src", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert document["version"] == 1
        assert set(document) == {"version", "files_checked", "rules",
                                 "violations", "counts", "suppressed",
                                 "unused_allowlist"}
        (violation,) = document["violations"]
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        assert violation["rule"] == "seam-bypass"
        assert document["counts"] == {"seam-bypass": 1}
        assert set(RULES) == set(document["rules"])

    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        write_tree(tmp_path, {"src/repro/aoa/clean.py": "x = 1\n"})
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_list_rules_names_all_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        output = capsys.readouterr().out
        for name in RULES:
            assert name in output

    def test_unknown_rule_is_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--rule", "nonsense"])
        assert excinfo.value.code == 2

    def test_syntax_error_is_reported_not_crashed(self, tmp_path, capsys,
                                                  monkeypatch):
        write_tree(tmp_path, {"src/repro/aoa/broken.py": "def f(:\n"})
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src"]) == 1
        assert "parse-error" in capsys.readouterr().out


# -------------------------------------------------------------- self-check
class TestSelfCheck:
    def test_rule_registry_has_the_documented_six(self):
        expected = {"seam-bypass", "rng-discipline", "atomic-write",
                    "frozen-config-mutation", "registry-completeness",
                    "async-blocking"}
        assert expected == set(RULES)
        for rule in RULES.values():
            assert rule.description

    def test_repo_is_clean(self):
        """The gate CI runs: ``python -m repro.lint src/`` exits 0."""
        process = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={**__import__("os").environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")})
        assert process.returncode == 0, process.stdout + process.stderr
        assert "0 violation(s)" in process.stdout
        assert "unused allowlist" not in process.stdout

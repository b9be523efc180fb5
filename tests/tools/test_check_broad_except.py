"""The broad-except lint: catch-alls only at the declared boundaries."""

import pathlib
import sys
import textwrap

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import check_broad_except  # noqa: E402


def _tree(root, files):
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return root


def test_real_source_tree_is_clean():
    assert check_broad_except.violations() == []


def test_every_broad_form_is_flagged_with_its_place(tmp_path):
    root = _tree(tmp_path, {"pkg/mod.py": """
        def bare():
            try:
                pass
            except:
                pass

        class Service:
            def copy(self):
                try:
                    pass
                except Exception:
                    return False

        def paired():
            try:
                pass
            except (KeyError, BaseException):
                pass

        try:
            import thing
        except builtins.Exception:
            thing = None
        """})
    problems = check_broad_except.violations(root, allowed={})
    assert [p.split(" — ")[0] for p in problems] == [
        "pkg/mod.py:5: broad except in bare",
        "pkg/mod.py:12: broad except in Service.copy",
        "pkg/mod.py:18: broad except in paired",
        "pkg/mod.py:23: broad except in <module>",
    ]


def test_specific_handlers_pass(tmp_path):
    root = _tree(tmp_path, {"mod.py": """
        def narrow():
            try:
                pass
            except (KeyError, AllocationError) as exc:
                raise ValueError("x") from exc
        """})
    assert check_broad_except.violations(root, allowed={}) == []


def test_allowed_boundaries_pass_and_stale_ones_are_reported(tmp_path):
    root = _tree(tmp_path, {"engine.py": """
        class Process:
            def resume(self):
                try:
                    pass
                except BaseException as exc:
                    self.fail(exc)
        """})
    allowed = {("engine.py", "Process.resume"): "boundary",
               ("gone.py", "worker"): "boundary"}
    problems = check_broad_except.violations(root, allowed=allowed)
    assert len(problems) == 1
    assert problems[0].startswith("gone.py: allowed boundary worker")


def test_the_allowlist_names_the_four_real_boundaries():
    assert sorted(path for path, _ in check_broad_except.ALLOWED) == [
        "shard/batch.py", "sim/engine.py", "sweep.py", "telemetry/tracer.py",
    ]

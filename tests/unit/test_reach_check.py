"""The reach gate (``scripts/reach_check.py``) on small planted packages."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "reach_check.py"


@pytest.fixture(scope="module")
def reach_check():
    spec = importlib.util.spec_from_file_location("reach_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach_check"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["reach_check"]


def write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


#: a package whose one root calls ``used``; everything else is planted per test
BASE = {
    "src/pkg/__init__.py": '"""pkg."""\n',
    "src/pkg/core.py": '''
        def used():
            return 1
        ''',
    "roots/main.py": '''
        from pkg.core import used

        used()
        ''',
}


def run(reach_check, tmp_path, files, allowlist=""):
    write(tmp_path, {**BASE, **files, "allow.txt": allowlist})
    return reach_check.check(source=tmp_path / "src" / "pkg",
                             roots=(tmp_path / "roots",),
                             allowlist=tmp_path / "allow.txt")


def unreached_names(errors):
    return [line.split("`")[1] for line in errors if "unreached" in line]


class TestListed:
    def test_the_base_package_passes(self, reach_check, tmp_path):
        rows, errors = run(reach_check, tmp_path, {})
        assert errors == []
        assert rows[0].endswith("| 0 |")

    def test_a_planted_unreached_def_fails(self, reach_check, tmp_path):
        rows, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                def used():
                    return 1


                def planted():
                    return 2
                ''',
        })
        assert unreached_names(errors) == ["pkg.core:planted"]
        assert rows[0].endswith("| 1 |")

    def test_a_name_reached_only_by_a_reexport_or_a_test_fails(
            self, reach_check, tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/__init__.py": '''
                """pkg: exports :func:`exported`."""
                from pkg.extra import exported

                __all__ = ["exported"]
                ''',
            "src/pkg/extra.py": '''
                def exported():
                    return 3
                ''',
            "tests/test_extra.py": '''
                from pkg import exported


                def test_exported():
                    assert exported() == 3
                ''',
        })
        assert unreached_names(errors) == ["pkg.extra:exported"]

    def test_what_only_an_unreached_def_calls_is_unreached(
            self, reach_check, tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                def used():
                    return 1


                def dead():
                    return helper()


                def helper():
                    return 2
                ''',
        })
        assert sorted(unreached_names(errors)) == ["pkg.core:dead",
                                                   "pkg.core:helper"]


class TestReached:
    def test_a_string_dispatch_table_reaches_its_handlers(self, reach_check,
                                                          tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                class Daemon:
                    CONTROL_STEPS = {"ping": "on_ping"}

                    def dispatch(self, tag):
                        return getattr(self, self.CONTROL_STEPS[tag])()

                    def on_ping(self):
                        return "pong"


                def used():
                    return Daemon().dispatch("ping")
                ''',
        })
        assert errors == []

    def test_a_decorator_registered_function_is_reached(self, reach_check,
                                                        tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                REGISTRY = {}


                def register(name):
                    def decorate(function):
                        REGISTRY[name] = function
                        return function
                    return decorate


                @register("bench")
                def registered_bench():
                    return 4


                def used():
                    return REGISTRY
                ''',
        })
        assert errors == []

    def test_a_stdlib_override_is_reached(self, reach_check, tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                from http.server import BaseHTTPRequestHandler


                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        return None


                def used():
                    return Handler
                ''',
        })
        assert errors == []

    def test_a_builtin_base_reaches_only_the_methods_it_defines(
            self, reach_check, tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                class Table(dict):
                    def keys(self):
                        return sorted(super().keys())

                    def planted(self):
                        return 6


                def used():
                    return Table
                ''',
        })
        assert unreached_names(errors) == ["pkg.core:Table.planted"]

    def test_getattr_with_a_literal_name_reaches_the_method(self, reach_check,
                                                            tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                class Store:
                    def fetch(self):
                        return 5


                def used():
                    return getattr(Store(), "fetch")()
                ''',
        })
        assert errors == []

    def test_a_module_qualname_string_reaches_its_target(self, reach_check,
                                                         tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                class Store:
                    def fetch(self):
                        return 5


                TARGETS = ("pkg.core:Store.fetch",)


                def used():
                    return TARGETS, Store
                ''',
        })
        assert errors == []

    def test_dunder_methods_of_a_reached_class_are_reached(self, reach_check,
                                                           tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                class Box:
                    def __len__(self):
                        return helper()

                    def planted(self):
                        return 7


                def helper():
                    return 0


                def used():
                    return Box
                ''',
        })
        assert unreached_names(errors) == ["pkg.core:Box.planted"]

    def test_a_reached_class_reaches_its_bases(self, reach_check, tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                class Base:
                    pass


                class Child(Base):
                    pass


                def used():
                    return Child
                ''',
        })
        assert errors == []

    def test_a_docstring_mention_reaches_nothing(self, reach_check, tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                def used():
                    """Unlike :func:`planted`, this one runs."""
                    return 1


                def planted():
                    return 2
                ''',
        })
        assert unreached_names(errors) == ["pkg.core:planted"]

    def test_an_unreached_private_name_is_not_listed(self, reach_check,
                                                     tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                def used():
                    return 1


                def _private():
                    return 2
                ''',
        })
        assert errors == []

    def test_a_method_called_on_any_object_is_reached(self, reach_check,
                                                      tmp_path):
        _, errors = run(reach_check, tmp_path, {
            "src/pkg/core.py": '''
                class Store:
                    def fetch(self):
                        return 5


                def used(store=None):
                    return (store or Store()).fetch()
                ''',
        })
        assert errors == []


class TestAllowlist:
    PLANTED = {
        "src/pkg/core.py": '''
            def used():
                return 1


            def oracle_only():
                return helper()


            def helper():
                return 2
            ''',
    }

    def test_an_allowlisted_name_passes_and_keeps_what_it_reaches(
            self, reach_check, tmp_path):
        rows, errors = run(
            reach_check, tmp_path, self.PLANTED,
            "# comment\npkg.core:oracle_only oracle: a test's oracle\n")
        assert errors == []
        assert rows == [
            "| unreached public names outside the allowlist (count, "
            "must be 0) | 0 |",
            "| reach allowlist entries (count) | 1 |"]

    def test_a_line_naming_a_deleted_def_fails(self, reach_check, tmp_path):
        _, errors = run(
            reach_check, tmp_path, self.PLANTED,
            "pkg.core:oracle_only oracle: a test's oracle\n"
            "pkg.core:gone oracle: deleted since\n")
        assert errors == ["allow.txt: `pkg.core:gone` no longer exists"]

    def test_a_line_naming_a_reached_def_fails(self, reach_check, tmp_path):
        _, errors = run(reach_check, tmp_path, {},
                        "pkg.core:used oracle: stale\n")
        assert errors == ["allow.txt: `pkg.core:used` is reached now"]

    def test_a_line_without_a_known_reason_kind_fails(self, reach_check,
                                                      tmp_path):
        _, errors = run(reach_check, tmp_path, self.PLANTED,
                        "pkg.core:oracle_only because: it is handy\n")
        assert any("expected" in error for error in errors)
        assert "pkg.core:oracle_only" in unreached_names(errors)


def test_the_repository_passes(reach_check):
    rows, errors = reach_check.check()
    assert errors == []
    assert rows[0].endswith("| 0 |")

"""Tests for repro.envflags - the one boolean parser for OBFUSCADE_* switches.

Includes a regression test: ``OBFUSCADE_FAULTS=false`` used
to leave fault injection armed (only the exact string "0" disabled it).
"""

import warnings

import pytest

from repro import envflags
from repro.envflags import EnvFlagWarning, env_flag, parse_flag


class TestParseFlag:
    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "TRUE", "Yes",
                                     " on ", "True"])
    def test_truthy_spellings(self, raw):
        assert parse_flag(raw, default=False) is True

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", "FALSE",
                                     "No", " off ", "False"])
    def test_falsy_spellings(self, raw):
        assert parse_flag(raw, default=True) is False

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_and_empty_take_the_default(self, default):
        assert parse_flag(None, default=default) is default
        assert parse_flag("", default=default) is default
        assert parse_flag("   ", default=default) is default

    @pytest.mark.parametrize("default", [True, False])
    def test_junk_takes_the_default_and_warns(self, default):
        name = f"JUNK_FLAG_{default}"  # the warning memoizes per name/value
        with pytest.warns(EnvFlagWarning, match=name):
            assert parse_flag(
                "maybe?", default=default, name=name
            ) is default

    def test_junk_warns_once_per_name_value_pair(self):
        with pytest.warns(EnvFlagWarning):
            parse_flag("bogus", name="ONCE_FLAG")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_flag("bogus", name="ONCE_FLAG")  # memoized: no warning
        with pytest.warns(EnvFlagWarning):
            parse_flag("other-bogus", name="ONCE_FLAG")


class TestEnvFlag:
    def test_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("OBFUSCADE_TEST_FLAG", "yes")
        assert env_flag("OBFUSCADE_TEST_FLAG") is True
        monkeypatch.setenv("OBFUSCADE_TEST_FLAG", "off")
        assert env_flag("OBFUSCADE_TEST_FLAG", default=True) is False
        monkeypatch.delenv("OBFUSCADE_TEST_FLAG")
        assert env_flag("OBFUSCADE_TEST_FLAG", default=True) is True


class TestFaultsSwitchRegression:
    """OBFUSCADE_FAULTS=false must disarm injection (ISSUE 9 bugfix)."""

    @pytest.fixture
    def armed_plan(self):
        from repro import faults
        from repro.faults.plan import FaultPlan, FaultSpec

        faults.install(FaultPlan((FaultSpec("worker", "delay"),)))
        yield
        faults.uninstall()

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off"])
    def test_falsy_master_switch_disarms(self, monkeypatch, armed_plan, raw):
        from repro.faults import injector

        monkeypatch.setenv(injector.SWITCH_ENV, raw)
        assert injector.active_plan() is None

    @pytest.mark.parametrize("raw", [None, "", "1", "true"])
    def test_default_and_truthy_keep_the_plan(
        self, monkeypatch, armed_plan, raw
    ):
        from repro.faults import injector

        if raw is None:
            monkeypatch.delenv(injector.SWITCH_ENV, raising=False)
        else:
            monkeypatch.setenv(injector.SWITCH_ENV, raw)
        assert injector.active_plan() is not None

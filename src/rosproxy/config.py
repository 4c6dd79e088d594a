"""Process configuration: defaults < environment < flags.

Every user setting is one row of SETTINGS: its ProxyConfig field, its
flag, its key in echo_lines(), its default, its parser and its help
text. The environment variable is ROSPROXY_ plus the flag in upper snake
case (--port-range is ROSPROXY_PORT_RANGE). The flags, the environment
lookup, the echo lines and ProxyConfig's fields are all built from that
table. Validation failures raise ConfigError naming the offending key,
so a bad deployment dies with a message that says which knob to fix.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field, make_dataclass
from typing import Callable, List, Mapping, Optional

from .http11 import split_http_uri
from .ports import PortRange

LOG_LEVELS = ("debug", "info", "warning", "error")


class ConfigError(Exception):
    pass


def _parse_range(text: str, key: str) -> PortRange:
    low_text, sep, high_text = text.partition("-")
    if not sep or not low_text.strip().isdigit() or not high_text.strip().isdigit():
        raise ConfigError("%s: expected LOW-HIGH, got %r" % (key, text))
    try:
        return PortRange(int(low_text), int(high_text))
    except ValueError as exc:
        raise ConfigError("%s: %s" % (key, exc))


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError("%s: expected an integer, got %r" % (key, text))


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError("%s: expected a number, got %r" % (key, text))
    if not math.isfinite(value):  # a nan or inf deadline fires at once
        raise ConfigError("%s: expected a finite number, got %r" % (key, text))
    return value


def _parse_text(text: str, key: str) -> str:
    return text


def _parse_level(text: str, key: str) -> str:
    return text.lower()


@dataclass(frozen=True)
class Setting:
    """One user setting, declared once; see the module docstring."""

    field: str
    flag: str  # without the leading --
    echo: str  # key of its echo_lines() line
    default: Optional[str]  # as it would be typed; None: required
    parse: Callable[[str, str], object]  # (text, key) -> value
    help: str

    @property
    def env(self) -> str:
        return "ROSPROXY_" + self.flag.upper().replace("-", "_")

    @property
    def key(self) -> str:
        """How a ConfigError names this setting."""
        return "%s/--%s" % (self.env, self.flag)

    def show(self, value) -> str:
        return ("%g" if self.parse is _parse_float else "%s") % (value,)


SETTINGS = (
    Setting("upstream_master_uri", "master-uri", "master_uri", None, _parse_text,
            "upstream master URI (http://host:port/)"),
    Setting("advertised_host", "advertised-host", "advertised_host", None, _parse_text,
            "hostname/IP external peers can reach"),
    Setting("main_port", "port", "main_port", "11311", _parse_int, "main gateway port"),
    Setting("port_range", "port-range", "port_range", "30000-30099", _parse_range,
            "leased range LOW-HIGH"),
    Setting("host_port_offset", "host-port-offset", "host_port_offset", "0", _parse_int,
            "advertised = bound + offset"),
    Setting("ping_interval", "ping-interval", "ping_interval", "10", _parse_float,
            "seconds between liveness pings"),
    Setting("ping_failure_threshold", "ping-failures", "ping_failures", "3", _parse_int,
            "failed pings before purge"),
    Setting("purge_grace", "purge-grace", "purge_grace", "30", _parse_float,
            "seconds at refcount 0 before purge"),
    Setting("request_timeout", "request-timeout", "request_timeout", "5", _parse_float,
            "seconds per forwarded call"),
    Setting("log_level", "log-level", "log_level", "info", _parse_level, "|".join(LOG_LEVELS)),
)

_BY_FIELD = {setting.field: setting for setting in SETTINGS}


def _error(field_name: str, message: str) -> ConfigError:
    return ConfigError(_BY_FIELD[field_name].key + message)


class _ProxyConfigMethods:
    """The methods of ProxyConfig, whose fields are made from SETTINGS."""

    def validate(self) -> "ProxyConfig":
        if not self.upstream_master_uri:
            raise _error("upstream_master_uri", " is required")
        try:
            split_http_uri(self.upstream_master_uri)
        except ValueError as exc:
            raise _error("upstream_master_uri", ": %s" % exc)
        if not self.advertised_host:
            raise _error("advertised_host", " is required")
        if not 1 <= self.main_port <= 65535:
            raise _error("main_port", ": %d out of range" % self.main_port)
        if self.port_range.size < 2:
            raise _error(
                "port_range",
                ": need at least 2 ports (one gateway + one relay), got %d"
                % self.port_range.size,
            )
        if self.main_port in self.port_range:
            raise _error(
                "main_port",
                ": %d lies inside the leased range %s" % (self.main_port, self.port_range),
            )
        mapped_low = self.port_range.low + self.host_port_offset
        mapped_high = self.port_range.high + self.host_port_offset
        if mapped_low < 1024 or mapped_high > 65535:
            raise _error(
                "host_port_offset",
                ": %d maps %s to %d-%d, outside 1024-65535"
                % (self.host_port_offset, self.port_range, mapped_low, mapped_high),
            )
        if self.ping_interval <= 0:
            raise _error("ping_interval", " must be > 0")
        if self.ping_failure_threshold < 1:
            raise _error("ping_failure_threshold", " must be >= 1")
        if self.purge_grace < 0:
            raise _error("purge_grace", " must be >= 0")
        if self.request_timeout <= 0:
            raise _error("request_timeout", " must be > 0")
        if self.log_level not in LOG_LEVELS:
            raise _error(
                "log_level", ": %r not one of %s" % (self.log_level, "/".join(LOG_LEVELS))
            )
        return self

    def echo_lines(self) -> List[str]:
        """The effective configuration as grep-friendly key=value lines."""
        return [
            "%s=%s" % (s.echo, s.show(getattr(self, s.field))) for s in SETTINGS
        ]


def _config_field(setting: Setting) -> tuple:
    if setting.default is None:
        return setting.field, str
    value = setting.parse(setting.default, setting.key)
    return setting.field, type(value), field(default=value)


# One field per setting, in table order, then bind_host: a knob with no
# flag, "" (every interface) in deployment. Only tests set it, to bind
# one loopback address.
ProxyConfig = make_dataclass(
    "ProxyConfig",
    [_config_field(s) for s in SETTINGS] + [("bind_host", str, field(default=""))],
    bases=(_ProxyConfigMethods,),
)
ProxyConfig.__module__ = __name__  # make_dataclass sets it itself only from 3.12


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosproxy",
        description="Registration-rewriting proxy joining isolated nodes to an external graph",
    )
    for s in SETTINGS:
        default = "" if s.default is None else " (default %s)" % s.default
        parser.add_argument("--" + s.flag, help=s.help + default)
    return parser


def load_config(env: Mapping[str, str], argv: Optional[List[str]] = None) -> ProxyConfig:
    args = vars(build_arg_parser().parse_args(argv or []))
    values = {}
    for s in SETTINGS:
        text = args[s.flag.replace("-", "_")]
        if text is None:
            text = env.get(s.env) or s.default or ""
        values[s.field] = s.parse(text, s.key)
    return ProxyConfig(**values).validate()

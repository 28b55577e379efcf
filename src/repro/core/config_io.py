"""Configuration persistence: CoReDAConfig <-> JSON.

Care-home deployments tune stall timeouts, escalation and reward
shaping per resident; those settings belong in version-controlled
files, not code.  The format is a plain nested JSON object mirroring
the dataclass structure, with unknown keys rejected loudly (a typo'd
setting silently ignored is a mis-deployment).
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Dict, FrozenSet, Type, Union

from repro.core.config import (
    CoReDAConfig,
    PlanningConfig,
    RadioConfig,
    RemindingConfig,
    SensingConfig,
)
from repro.core.errors import ConfigurationError

__all__ = ["config_to_dict", "config_from_dict", "save_config", "load_config"]

_SECTIONS: Dict[str, Type] = {
    "sensing": SensingConfig,
    "radio": RadioConfig,
    "planning": PlanningConfig,
    "reminding": RemindingConfig,
}


def _backend_keys(*knobs: str) -> FrozenSet[str]:
    return frozenset(f"{knob}_backend" for knob in knobs)


#: Keys that older files carry for retired speed knobs: the backend
#: selectors of the event kernel, the Q-table and inference, the
#: kernel's bucket width and the node firmware's block size.  None of
#: them ever changed a result, so loading drops exactly these; ``sim``
#: held nothing else and is now a retired section.
_RETIRED_KEYS: Dict[str, FrozenSet[str]] = {
    "sim": _backend_keys("kernel") | {"bucket_width"},
    "planning": _backend_keys("q", "infer"),
    "sensing": frozenset({"batch_samples"}),
}


def config_to_dict(config: CoReDAConfig) -> Dict[str, Any]:
    """A plain nested dict of ``config`` (JSON-ready)."""
    return asdict(config)


def config_from_dict(data: Any) -> CoReDAConfig:
    """Rebuild a :class:`CoReDAConfig` from :func:`config_to_dict` output.

    Sections and keys may be omitted (defaults apply); unknown
    sections or keys, and values outside their fields' declared
    domains, raise :class:`ConfigurationError`.  Keys of retired knobs
    (``_RETIRED_KEYS``) are dropped.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"a configuration must be an object, got {type(data).__name__}"
        )
    known_top = set(_SECTIONS) | set(_RETIRED_KEYS) | {"seed"}
    unknown = set(data) - known_top
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for section, section_data in data.items():
        if section == "seed":
            kwargs["seed"] = section_data
            continue
        if not isinstance(section_data, dict):
            raise ConfigurationError(
                f"section {section!r} must be an object, got "
                f"{type(section_data).__name__}"
            )
        retired = _RETIRED_KEYS.get(section, frozenset())
        kept = {
            key: value
            for key, value in section_data.items()
            if key not in retired
        }
        cls = _SECTIONS.get(section)
        valid_keys = {f.name for f in fields(cls)} if cls is not None else set()
        bad = set(kept) - valid_keys
        if bad:
            raise ConfigurationError(
                f"unknown keys in section {section!r}: {sorted(bad)}"
            )
        if cls is not None:
            kwargs[section] = cls(**kept)
    return CoReDAConfig(**kwargs)


def save_config(config: CoReDAConfig, path: Union[str, Path]) -> None:
    """Write ``config`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2))


def load_config(path: Union[str, Path]) -> CoReDAConfig:
    """Read a configuration previously written by :func:`save_config`.

    Hand-edited files get full validation: a structural error or a
    value outside its field's domain raises :class:`ConfigurationError`,
    and so does a file that is not JSON.
    """
    try:
        document = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"not a JSON document: {exc}") from exc
    return config_from_dict(document)

"""The README's Python examples run as written, and its configs load."""

import json
import re
from pathlib import Path

from timetomo import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.S | re.M)


def test_readme_python_blocks_run_in_order():
    # every ```python block, in order, in one namespace, as a reader would paste them
    blocks = _blocks("python")
    assert blocks
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_readme_json_blocks_are_configs_that_load():
    # the README's configs follow the config schema as it is, not as it was
    blocks = _blocks("json")
    assert blocks
    for block in blocks:
        load_config(json.loads(block))

"""Every command in golden.py prints what its committed fingerprint pins."""

import json

import golden


def test_every_output_matches_its_committed_fingerprint():
    pinned = json.loads(golden.GOLDEN.read_text())
    assert list(pinned) == golden.COMMANDS, "command list changed; rewrite with golden.py --write"
    moved = [command for command in golden.COMMANDS
             if golden.digest(*golden.run(command)) != pinned[command]]
    assert moved == [], f"{len(moved)} outputs moved:\n" + "\n".join(moved)

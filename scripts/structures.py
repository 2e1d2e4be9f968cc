"""The three synthetic process structures that the experiment scripts run on."""

from attnexplain.synthlog import loop, sequence, xor

STRUCTURES = {
    "sequence": sequence("A", "B", "C", "D", "E"),
    "xor": xor("A", ["B", "C"], "D"),
    "loop": loop(["A", "B"], max_iter=3),
}

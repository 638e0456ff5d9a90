"""byrne: character-driven soccer commentary replay.

Feeds pre-analysed game fact logs through a declarative character profile and
emits, per utterance, a SABLE speech script and a timed FACS/viseme facial
timeline. See the README for file formats and the `commentate` CLI. The names
below are the public API; everything else lives in the layer modules.
"""

from .errors import ByrneError
from .facts import parse_game_log
from .pipeline import initial_state, run_replay, step
from .profile import load_profile
from .style import load_style

__version__ = "0.1.0"

"""lyrecon: rebuild lyric corpora from Bag-of-Words datasets.

Pipeline: parse a BoW corpus and its mood/genre/artist metadata, inner-join
them into per-track records, render one generation prompt per record, drive
a text-generation backend (live HTTP or offline mock) with caching and
retries, and evaluate the resulting corpus with set-level statistics and
BoW-fidelity metrics.
"""

from lyrecon.analysis import Lexicon, LyricDoc, load_lexicon, segment, stem, tokenize
from lyrecon.backend import BackendConfig, LyricsCache, cache_key, generate, mock_generate, run_batch
from lyrecon.bow import BowCorpus, TrackBow, VocabTable, iter_bow, load_bow, ordered_vocabulary, serialize_bow
from lyrecon.errors import LyreconError
from lyrecon.evaluation import CorpusStats, bow_coverage, compare, corpus_stats, frequency_fidelity, stem_counts
from lyrecon.metadata import (
    ColumnMap,
    JoinReport,
    ReconstructionRecord,
    join_records,
    parse_genre_table,
    parse_mood_csv,
    parse_track_meta,
)
from lyrecon.mood import MoodPoint, MoodTable, default_mood_table, load_mood_table, mood_angle, mood_label, validate_mood_table
from lyrecon.prompt import PROMPT_TEMPLATE, Prompt, build_prompt, genre_string, vocabulary_string

__version__ = "0.1.0"

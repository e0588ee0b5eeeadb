"""Exception hierarchy for the typodist package.

Query errors (bad identifiers, undefined statistics) and input-format
errors (unparseable files, schema violations) are kept on separate
branches so the CLI can map them to distinct exit codes.
"""


class TypodistError(Exception):
    """Base class for all typodist errors."""


class QueryError(TypodistError):
    """A request referenced something unknown or asked for an undefined value."""


class FormatError(TypodistError):
    """An input file or batch violates the expected format or contract."""


# registry lookups

def _quoted(name) -> str:
    """repr of a name; a str subclass (numpy.str_) reads as the str it holds."""
    return repr(str(name) if isinstance(name, str) else name)


class UnknownLanguage(QueryError):
    def __init__(self, glottocode, parent_of=None):
        super().__init__(f"unknown language: {_quoted(glottocode)}")
        self.glottocode = glottocode
        # the language being registered whose parent is unknown, if any
        self.parent_of = parent_of


class UnknownFeature(QueryError):
    def __init__(self, name):
        super().__init__(f"unknown feature: {_quoted(name)}")
        self.name = name


class UnknownSource(QueryError):
    def __init__(self, name):
        super().__init__(f"unknown source: {_quoted(name)}")
        self.name = name


# store mutation

class ConflictingWrite(FormatError):
    """A batch tried to overwrite an existing known cell with a different value."""

    def __init__(self, lang, feat, src, old, new):
        super().__init__(
            f"conflicting write at ({lang}, {feat}, {src}): "
            f"existing {old} vs incoming {new} (overwrite not requested)"
        )
        self.cell = (lang, feat, src)
        self.old = old
        self.new = new


# ingest

class UnknownCategory(FormatError):
    """Observed nominal value is not in the declared category set."""


class LevelOutOfRange(FormatError):
    """Observed ordinal level is outside [0, max_level]."""


class CyclicRules(FormatError):
    """The implication edges, or the equivalence edges, of an inference rule set form a cycle."""


class NameCollision(FormatError):
    """Two distinct raw feature labels canonicalized to the same name."""

    def __init__(self, canonical, raw_a, raw_b):
        super().__init__(
            f"feature name collision: {raw_a!r} and {raw_b!r} both map to {canonical!r}"
        )
        self.canonical = canonical
        self.raw_labels = (raw_a, raw_b)


class UnresolvableId(FormatError):
    def __init__(self, external_id):
        super().__init__(f"cannot resolve language identifier: {external_id!r}")
        self.external_id = external_id


# aggregation / imputation

class EmptySourceSubset(QueryError):
    """Aggregation was requested over an empty source subset."""


# confidence

class EmptyScope(QueryError):
    """A confidence component was requested over an empty feature scope."""


class NoSourcedFeatures(QueryError):
    """A language has no sourced value for any feature in scope; consistency undefined."""


class MissingQualityRun(QueryError):
    """No cached quality-test metrics exist for the requested imputer and mode."""


# evaluation

class TooFewObserved(QueryError):
    """Not enough observed cells to run the quality test or cross-validation."""


class DegenerateInput(QueryError):
    """Rank correlation is undefined (constant input list)."""

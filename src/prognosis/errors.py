"""The pipeline's failure vocabulary: one exception class per failure meaning."""


class PrognosisError(Exception):
    """Base class for all pipeline errors."""


class ShapeMismatch(PrognosisError):
    """Operands are incompatible, empty, or not scalar where a scalar is due."""


class NonFiniteValue(PrognosisError):
    """A NaN or infinity in a signal, tensor or op result."""


class BadConfig(PrognosisError):
    """A parameter, preset or design value is out of range."""


class DataFileError(PrognosisError):
    """A data file is missing or bad, or an output cannot be written."""


class UnusableRecording(PrognosisError):
    """An hour the pipeline cannot use, or a patient with no usable hour."""


class InsufficientData(PrognosisError):
    """A dataset or split is too small or single-class to train or score."""

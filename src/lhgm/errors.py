"""Exception types shared across the codec stack."""


class CodecError(Exception):
    """Base class for data and integrity failures of a coded stream or container."""


class CorruptStreamError(CodecError):
    """Entropy-coded payload failed decoding or its checksum."""


class ContainerFormatError(CodecError):
    """Compressed container is malformed or truncated."""


class WeightsDigestError(CodecError):
    """Container was produced with different model weights."""


class UnsupportedImageError(CodecError):
    """Input image is not 8-bit RGB."""


class TrainingDivergedError(RuntimeError):
    """Loss exceeded the divergence guard for too many consecutive steps."""

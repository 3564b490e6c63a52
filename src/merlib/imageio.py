"""Binary portable-pixmap reading and writing (P6 color, P5 grayscale).

8-bit only. Grayscale reads are replicated to three channels so the rest
of the package can assume [H,W,3] uint8 everywhere.
"""

import numpy as np

from .errors import ValidationError


def _read_header_tokens(blob: bytes, count: int):
    """Whitespace-separated header tokens; '#' starts a comment to end of line.

    Returns the tokens and the offset of the raster (one whitespace byte
    after the last token).
    """
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(blob):
            raise ValidationError("image header is truncated")
        ch = blob[pos:pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < len(blob) and blob[pos:pos + 1] not in b" \t\r\n#":
                pos += 1
            tokens.append(blob[start:pos])
    if pos >= len(blob) or blob[pos:pos + 1] not in b" \t\r\n":
        raise ValidationError("image header must end with a whitespace byte")
    return tokens, pos + 1


def read_image(path) -> np.ndarray:
    """Read a P6 or P5 file as uint8 [H,W,3]."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read image {path}: {e}") from e
    if blob[:2] not in (b"P6", b"P5"):
        raise ValidationError(f"{path}: not a binary PPM/PGM file")
    tokens, raster = _read_header_tokens(blob, 4)
    magic = tokens[0]
    if magic not in (b"P6", b"P5"):
        raise ValidationError(f"{path}: magic number {magic!r} is neither P6 nor P5")
    if not all(t.isdigit() for t in tokens[1:4]):
        raise ValidationError(f"{path}: header fields must be ASCII digits, got "
                              f"{b' '.join(tokens[1:4])!r}")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if width < 1 or height < 1:
        raise ValidationError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ValidationError(f"{path}: only 8-bit images are supported, maxval {maxval}")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    data = blob[raster:raster + need]
    if len(data) != need:
        raise ValidationError(f"{path}: raster has {len(data)} bytes, needs {need}")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(height, width, channels)
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    return arr.copy()


def write_ppm(path, image: np.ndarray):
    """Write uint8 [H,W,3] as binary P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValidationError(f"write_ppm needs uint8 [H,W,3], got "
                              f"{image.dtype} {image.shape}")
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(image.tobytes())


def write_pgm(path, image: np.ndarray):
    """Write uint8 [H,W] as binary P5."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValidationError(f"write_pgm needs uint8 [H,W], got "
                              f"{image.dtype} {image.shape}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(image.tobytes())

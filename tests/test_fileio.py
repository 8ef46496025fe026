"""atomic_write: text and chunk writes, byte for byte, or no change at all."""

import pytest

from springsim import IoFailure
from springsim._fileio import atomic_write


class TestAtomicWrite:
    def test_chunks_are_written_as_they_are(self, tmp_path):
        path = tmp_path / "out.csv"
        chunks = [b"a,b\n", b"1.5,2\r\n", b"", b"\r3\n"]
        atomic_write(path, iter(chunks))
        assert path.read_bytes() == b"".join(chunks)

    # The text of report.csv, specs.ini and failures.csv: UTF-8, and no
    # newline translated.
    def test_text_is_written_as_utf8(self, tmp_path):
        path = tmp_path / "report.csv"
        text = "label,e0\nmäss_ ,1.5\r\nlast"
        atomic_write(path, text)
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("error", [ValueError("bad row"), OSError(28, "No space left")])
    def test_failed_chunk_leaves_the_old_file(self, tmp_path, error):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"old\n")

        def chunks():
            yield b"new\n" * 10_000
            raise error

        expected = IoFailure if isinstance(error, OSError) else ValueError
        with pytest.raises(expected):
            atomic_write(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp file left

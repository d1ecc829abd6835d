"""serialize.write_lines, the one writer of every output: a file is
overwritten in place and cut to the written length."""

import errno
import os
import stat

import pytest

from levyestim import serialize
from levyestim.serialize import SummaryRow, write_lines, write_summary_json

LINES = ["# h=0.5", "1.25", "-3.0", "π ≈ 3.14"]
TEXT = ("\n".join(LINES) + "\n").encode("utf8")


def test_a_longer_file_is_left_holding_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old line\n" * 1000)
    write_lines(path, LINES)
    assert path.read_bytes() == TEXT
    write_lines(path, LINES[:1])
    assert path.read_bytes() == b"# h=0.5\n"


def test_a_rewrite_keeps_the_inode_the_mode_and_hard_links(tmp_path):
    path, link = tmp_path / "out.csv", tmp_path / "link.csv"
    path.write_bytes(b"x" * 5000)
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    write_lines(path, LINES)
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert link.read_bytes() == TEXT


def test_a_new_file_gets_the_mode_open_w_gives(tmp_path):
    mask = os.umask(0o022)
    os.umask(mask)
    write_lines(tmp_path / "new.csv", LINES)
    with open(tmp_path / "ref.csv", "w", encoding="utf8"):
        pass
    mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
    assert mode == 0o666 & ~mask
    assert mode == stat.S_IMODE((tmp_path / "ref.csv").stat().st_mode)


def test_a_device_is_written_without_a_cut():
    write_lines(os.devnull, LINES)


def test_a_directory_is_refused_as_open_w_refuses_it(tmp_path):
    with pytest.raises(IsADirectoryError) as want:
        open(tmp_path, "w", encoding="utf8")
    with pytest.raises(IsADirectoryError) as got:
        write_lines(tmp_path, LINES)
    assert str(got.value) == str(want.value)


def test_a_summary_that_fails_to_encode_leaves_the_file_untouched(tmp_path):
    # the JSON text is built before the file opens
    path = tmp_path / "summary.json"
    path.write_bytes(b"earlier output\n")
    row = SummaryRow("table1", object(), "beta", 501, 5.0, 1.5, 1.5, 0.1,
                     0, 2, 0)
    with pytest.raises(TypeError):
        write_summary_json(path, [row], {})
    assert path.read_bytes() == b"earlier output\n"


def _fail_half_way(real_open):
    # the text layer, but its write lands half the text and then fails as
    # a full disk would
    def fake_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        write = fh.write

        def fail(text):
            write(text[:len(text) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        fh.write = fail
        return fh
    return fake_open


# 20 lines: the half that lands is still buffered when the write fails;
# 5000: it has reached the file
@pytest.mark.parametrize("count", [20, 5000])
def test_a_write_that_fails_part_way_leaves_an_empty_file(tmp_path,
                                                          monkeypatch, count):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old line\n" * 1000)
    monkeypatch.setattr(serialize, "open", _fail_half_way(open),
                        raising=False)
    with pytest.raises(OSError) as exc:
        write_lines(path, ["1.0"] * count)
    assert exc.value.errno == errno.ENOSPC
    assert path.read_bytes() == b""


def test_a_text_that_fails_to_encode_leaves_an_empty_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old line\n" * 1000)
    with pytest.raises(UnicodeEncodeError):
        write_lines(path, ["1.0", "\ud800"])
    assert path.read_bytes() == b""

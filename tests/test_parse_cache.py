"""The parse cache of dataset.load_cmapss: a table the bulk parse accepted is
kept beside its text file in dataset.CACHE_DIR, under the file's stat key,
and a later read of the unchanged file loads it instead of parsing the text.
A changed file is parsed again, a bad entry is a miss that gets replaced, a
failed write leaves the run as it was, a file not older than the read on its
file system's clock is never kept, and a cache directory that another user
may write is never used."""

import os
import tempfile
import threading
import types

import numpy as np
import pytest

from subtrack import dataset
from subtrack.dataset import CACHE_DIR, load_cmapss
from subtrack.synthetic import SynthConfig, generate_synthetic, save_cmapss


def fleet_bits(tset):
    return tset.matrix.tobytes(), tset.matrix.shape, tset.unit_ids, tset.bounds


def entries(path):
    """The cache entries of the file path."""
    cache = path.parent / CACHE_DIR / path.name
    return sorted(os.listdir(cache)) if cache.exists() else []


@pytest.fixture
def parses(monkeypatch):
    """The tables dataset.read_table returns, one per text parse."""
    tables, read_table = [], dataset.read_table

    def recording(fh):
        tables.append(read_table(fh))
        return tables[-1]

    monkeypatch.setattr(dataset, "read_table", recording)
    return tables


def write_fleet(path, n_regimes=1, n_units=5):
    train = generate_synthetic(
        SynthConfig(n_units=n_units, n_regimes=n_regimes, seed=4, min_cycles=30, max_cycles=45)
    )[0]
    save_cmapss(train, path)
    return train


@pytest.mark.parametrize("n_regimes", [1, 6], ids=["K1", "K6"])
def test_second_read_runs_no_parse(tmp_path, settle, parses, n_regimes):
    path = tmp_path / "train.txt"
    train = write_fleet(path, n_regimes)
    settle(path)
    first = load_cmapss(path)
    assert len(parses) == 1 and len(entries(path)) == 1
    second = load_cmapss(path)
    assert len(parses) == 1
    assert fleet_bits(second) == fleet_bits(first) == fleet_bits(train)
    assert not second.matrix.flags.writeable


def edit_in_place(path):
    """Change one digit of the first line's last field, keeping the size and
    the mtime; only the ctime tells the file changed."""
    st = os.stat(path)
    text = path.read_text()
    end = text.index("\n") - 1
    digit = "1" if text[end] != "1" else "2"
    path.write_text(text[:end] + digit + text[end + 1:])
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(path).st_size == st.st_size


def rename_over(path):
    """Put a same-size, same-mtime copy with one digit changed in place of
    path by os.replace: a new inode."""
    st = os.stat(path)
    other = path.with_name("other.txt")
    other.write_text(path.read_text())
    edit_in_place(other)
    os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns))
    os.replace(other, path)


def append_cycle(path):
    """One more cycle of the last unit, copied from its last line."""
    last = path.read_text().splitlines()[-1].split(" ")
    last[1] = str(int(last[1]) + 1)
    with open(path, "a") as fh:
        fh.write(" ".join(last) + "\n")


@pytest.mark.parametrize("change", [edit_in_place, rename_over, append_cycle])
def test_a_changed_file_is_parsed_again(tmp_path, settle, parses, change):
    path = tmp_path / "train.txt"
    write_fleet(path)
    settle(path)
    load_cmapss(path)
    change(path)
    settle(path)
    tset = load_cmapss(path)
    assert len(parses) == 2
    assert fleet_bits(tset) == fleet_bits(dataset._parse_cmapss_lines(path))
    # the new entry replaced the old one, and a third read hits it
    [entry] = entries(path)
    assert entry == dataset._entry_name(os.stat(path))
    assert fleet_bits(load_cmapss(path)) == fleet_bits(tset) and len(parses) == 2


def truncated(entry, table):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def float32(entry, table):
    with open(entry, "wb") as fh:
        np.save(fh, table.astype(np.float32))


def columns_25(entry, table):
    with open(entry, "wb") as fh:
        np.save(fh, table[:, :25])


def with_nan(entry, table):
    table = table.copy()
    table[3, 7] = np.nan
    with open(entry, "wb") as fh:
        np.save(fh, table)


def objects(entry, table):
    with open(entry, "wb") as fh:
        np.save(fh, table.astype(object), allow_pickle=True)


def no_rows(entry, table):
    with open(entry, "wb") as fh:
        np.save(fh, table[:0])


@pytest.mark.parametrize("corrupt", [truncated, float32, columns_25, with_nan, objects, no_rows])
def test_a_bad_entry_is_a_miss_that_is_replaced(tmp_path, settle, parses, corrupt):
    path = tmp_path / "train.txt"
    train = write_fleet(path)
    settle(path)
    load_cmapss(path)
    [name] = entries(path)
    entry = path.parent / CACHE_DIR / path.name / name
    corrupt(entry, parses[0])
    tset = load_cmapss(path)
    assert len(parses) == 2 and fleet_bits(tset) == fleet_bits(train)
    assert entries(path) == [name]
    assert np.load(entry, allow_pickle=False).tobytes() == parses[0].tobytes()


def test_a_failed_write_keeps_the_parse_and_no_entry(tmp_path, settle, monkeypatch):
    # root ignores mode bits, so the refused write is a monkeypatched one
    def refuse(*args, **kwargs):
        raise PermissionError("read-only")

    path = tmp_path / "train.txt"
    train = write_fleet(path)
    settle(path)
    monkeypatch.setattr(np, "save", refuse)
    assert fleet_bits(load_cmapss(path)) == fleet_bits(train)
    # neither the temporary file nor the directory made for it is left
    assert sorted(os.listdir(tmp_path)) == ["train.txt"]


@pytest.mark.parametrize("age, kept", [(0, False), (-2 * 10**9, False), (1, True)],
                         ids=["same-tick", "stamped-later", "older"])
def test_a_file_not_older_than_the_read_is_not_kept(tmp_path, monkeypatch, age, kept):
    # the read's start is the ctime the file system gives the entry's
    # temporary file. Faked here as the text's ctime plus age: a file
    # system whose tick holds both stamps (a 2 s FAT tick), one that stamps
    # the text after the read began (a server clock ahead of the local
    # one), and a text changed one ns before the read
    path = tmp_path / "train.txt"
    train = write_fleet(path)
    text = os.stat(path)
    fstat = os.fstat

    def stamped(fd):
        st = fstat(fd)
        if st.st_ino == text.st_ino:
            return st
        return types.SimpleNamespace(st_ctime_ns=max(text.st_ctime_ns, text.st_mtime_ns) + age)

    monkeypatch.setattr(os, "fstat", stamped)
    assert fleet_bits(load_cmapss(path)) == fleet_bits(train)
    assert len(entries(path)) == kept
    assert os.path.exists(tmp_path / CACHE_DIR) == kept


def test_a_file_changed_during_the_parse_is_not_kept(tmp_path, settle, monkeypatch):
    path = tmp_path / "train.txt"
    train = write_fleet(path)
    settle(path)
    read_table = dataset.read_table

    def appending(fh):
        table = read_table(fh)
        append_cycle(path)
        return table

    monkeypatch.setattr(dataset, "read_table", appending)
    assert fleet_bits(load_cmapss(path)) == fleet_bits(train)
    assert entries(path) == []


def test_a_pipe_is_never_kept(tmp_path, monkeypatch):
    # a pipe's stat does not describe what it carries, so an entry keyed by
    # it could be read back for another stream: even a stream written in
    # full before the reader takes its stat is not kept
    path = tmp_path / "train.txt"
    train = write_fleet(path, n_units=1)
    data = path.read_bytes()
    assert len(data) < 65536  # the writer finishes within the pipe's buffer
    fifo = tmp_path / "fleet.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
    fstat = os.fstat

    def after_the_writer(fd):
        writer.join(timeout=10)
        return fstat(fd)

    monkeypatch.setattr(os, "fstat", after_the_writer)
    writer.start()
    assert fleet_bits(load_cmapss(fifo)) == fleet_bits(train)
    assert not (tmp_path / CACHE_DIR).exists()


def test_entries_of_other_files_are_kept(tmp_path, settle, parses):
    # each file name keeps its own entry in its own directory
    names = ("train.txt", "train.txt.1", "test.txt")
    for name in names:
        write_fleet(tmp_path / name)
    settle(*(tmp_path / name for name in names))
    for name in names:
        load_cmapss(tmp_path / name)
    append_cycle(tmp_path / "train.txt")
    settle(tmp_path / "train.txt")
    load_cmapss(tmp_path / "train.txt")
    assert sorted(os.listdir(tmp_path / CACHE_DIR)) == sorted(names)
    for name in names:
        assert len(entries(tmp_path / name)) == 1
        load_cmapss(tmp_path / name)
    assert len(parses) == 4


def planted(table):
    """A table of the same shape, every sensor value changed."""
    table = table.copy()
    table[:, 5:] += 1.0
    return table


def group_writable(cache):
    cache.mkdir()
    cache.chmod(0o770)


def foreign(cache):
    if os.getuid() != 0:
        pytest.skip("only root can give a directory to another user")
    cache.mkdir(0o700)
    os.chown(cache, 65534, -1)


def linked(cache):
    # a link to a directory of this user, as another user could plant
    # beside a file in a shared directory
    target = cache.with_name("elsewhere")
    target.mkdir(0o700)
    cache.symlink_to(target)


@pytest.mark.parametrize("make", [group_writable, foreign, linked])
def test_a_cache_directory_others_may_write_is_not_used(tmp_path, settle, parses, make):
    # another user who may write the directory could plant an entry under a
    # file's stat key, which anyone can read: it is neither read nor written
    path = tmp_path / "train.txt"
    train = write_fleet(path)
    cache = tmp_path / CACHE_DIR
    make(cache)
    entry = cache.resolve() / path.name / dataset._entry_name(os.stat(path))
    entry.parent.mkdir()
    with open(entry, "wb") as fh:
        np.save(fh, planted(np.loadtxt(path, ndmin=2)))
    before = sorted(os.walk(cache.resolve()))
    settle(path)
    for _ in range(2):
        assert fleet_bits(load_cmapss(path)) == fleet_bits(train)
    assert len(parses) == 2
    assert sorted(os.walk(cache.resolve())) == before


def test_a_link_at_the_temporary_name_is_not_followed(tmp_path, settle, monkeypatch):
    # a name the temporary file could take, already a link to a file this
    # user may write: the file is made under another name, and the link's
    # target is left as it is
    path = tmp_path / "train.txt"
    train = write_fleet(path)
    cache = tmp_path / CACHE_DIR
    cache.mkdir(0o700)
    victim = tmp_path / "victim"
    victim.write_bytes(b"kept")
    (cache / "tmpplanted.tmp").symlink_to(victim)
    monkeypatch.setattr(tempfile, "_get_candidate_names", lambda: iter(["planted", "fresh"]))
    settle(path)
    assert fleet_bits(load_cmapss(path)) == fleet_bits(train)
    assert victim.read_bytes() == b"kept"
    assert len(entries(path)) == 1
    assert sorted(os.listdir(cache)) == ["tmpplanted.tmp", "train.txt"]


def test_a_plain_file_at_the_cache_name_keeps_the_directory_free(tmp_path, settle, parses):
    path = tmp_path / "train.txt"
    train = write_fleet(path)
    (tmp_path / CACHE_DIR).write_text("")
    settle(path)
    for _ in range(2):
        assert fleet_bits(load_cmapss(path)) == fleet_bits(train)
    assert len(parses) == 2
    assert sorted(os.listdir(tmp_path)) == [CACHE_DIR, "train.txt"]

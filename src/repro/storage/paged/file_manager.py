"""Page files and the per-relation file manager.

One relation's extension lives in one **page file**: a header page
followed by fixed-size pages (:class:`~repro.storage.paged.page.Page`).
The header page (page 0) carries the file's self-description:

```
offset 0   4s  magic        — b"RPG1"
offset 4   u16 format       — layout version (currently 1)
offset 6   u32 page_size    — every page of this file, header included
offset 10  u32 page_count   — pages allocated so far (header included)
offset 14  u32 free_head    — head of the free-list chain (0 = empty)
offset 18  u32 first_data   — first data page of the relation (0 = empty)
offset 22  u32 last_data    — the append target (0 = empty)
offset 26  u64 row_count    — stored records, kept current on sync
```

Data pages form a singly linked chain through their ``next_page``
header field; scans walk the chain in order, which preserves insertion
order.  Freed pages (a relation rewrite recycles its whole old chain)
are pushed on a **free-list**: each free page stores the id of the next
free page in its first four bytes, and ``allocate`` pops the list
before growing the file.

Every structural failure — a missing file, a short read, a bad magic —
raises :class:`~repro.exceptions.StorageError` with a one-line message
naming the file and the byte offset, never a bare traceback.

The :class:`FileManager` owns the directory of page files (one per
relation, file names percent-encoded so any relation name is safe) and
aggregates physical I/O counters (``pages_read`` / ``pages_written``)
for the buffer-pool telemetry.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, Dict, Iterator, List, Optional

from repro.exceptions import StorageError
from repro.storage.paged.page import MIN_PAGE_SIZE, Page

__all__ = ["DEFAULT_PAGE_SIZE", "PageFile", "FileManager", "relation_filename"]

#: a common OS page size; small enough that modest pools stay modest
DEFAULT_PAGE_SIZE = 4096

_MAGIC = b"RPG1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct(">4sHIIIIIQ")
_FREE_LINK = struct.Struct(">I")

#: characters that pass through the relation-name encoding unescaped
_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_")


def relation_filename(name: str) -> str:
    """A filesystem-safe, collision-free file name for one relation."""
    encoded = "".join(
        c if c in _SAFE else "%{:02X}".format(ord(c)) for c in name
    )
    return encoded + ".pages"


class PageFile:
    """One relation's pages: header, data chain, free-list."""

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE,
                 create: bool = False) -> None:
        self.path = path
        if create:
            if page_size < MIN_PAGE_SIZE:
                raise StorageError(
                    f"page size {page_size} is below the minimum "
                    f"{MIN_PAGE_SIZE}"
                )
            if page_size > 65536:
                raise StorageError(
                    f"page size {page_size} exceeds 65536 "
                    f"(slot offsets are 16-bit)"
                )
            self.page_size = page_size
            self.page_count = 1
            self.free_head = 0
            self.first_data = 0
            self.last_data = 0
            self.row_count = 0
            self._handle = open(path, "w+b")
            self._handle.write(bytes(page_size))
            self.sync_header()
        else:
            if not os.path.exists(path):
                raise StorageError(f"no such page file: {path}")
            self._handle = open(path, "r+b")
            raw = self._handle.read(_HEADER.size)
            if len(raw) < _HEADER.size:
                raise StorageError(
                    f"truncated page file {path}: {_HEADER.size}-byte "
                    f"header at offset 0, got {len(raw)} byte(s)"
                )
            magic, version, size, count, free, first, last, rows = \
                _HEADER.unpack(raw)
            if magic != _MAGIC:
                raise StorageError(
                    f"not a paged relation file: {path} "
                    f"(bad magic {magic!r} at offset 0)"
                )
            if version != _FORMAT_VERSION:
                raise StorageError(
                    f"unsupported page-file format {version} in {path} "
                    f"(this build reads format {_FORMAT_VERSION})"
                )
            self.page_size = size
            self.page_count = count
            self.free_head = free
            self.first_data = first
            self.last_data = last
            self.row_count = rows
            actual = os.path.getsize(path)
            expected = count * size
            if actual < expected:
                raise StorageError(
                    f"truncated page file {path}: expected {expected} "
                    f"bytes ({count} pages of {size}), got {actual}"
                )

    # ------------------------------------------------------------------
    # raw page I/O
    # ------------------------------------------------------------------
    def read_page(self, page_id: int) -> Page:
        """Read one page image off disk (no pool involved)."""
        if not 1 <= page_id < self.page_count:
            raise StorageError(
                f"{self.path}: no page {page_id} "
                f"(file has {self.page_count} pages)"
            )
        offset = page_id * self.page_size
        self._handle.seek(offset)
        raw = self._handle.read(self.page_size)
        if len(raw) != self.page_size:
            raise StorageError(
                f"truncated page file {self.path}: expected "
                f"{self.page_size} bytes at offset {offset}, got {len(raw)}"
            )
        return Page(page_id, bytearray(raw), self.page_size)

    def write_page(self, page: Page) -> None:
        """Write one page image back to disk."""
        self._handle.seek(page.page_id * self.page_size)
        self._handle.write(page.data)

    def sync_header(self) -> None:
        """Persist the header fields onto page 0."""
        self._handle.seek(0)
        self._handle.write(
            _HEADER.pack(
                _MAGIC, _FORMAT_VERSION, self.page_size, self.page_count,
                self.free_head, self.first_data, self.last_data,
                self.row_count,
            )
        )

    # ------------------------------------------------------------------
    # allocation and the free-list
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """A usable page id: the free-list head, or a fresh page."""
        if self.free_head:
            page_id = self.free_head
            page = self.read_page(page_id)
            (self.free_head,) = _FREE_LINK.unpack_from(page.data, 0)
            return page_id
        page_id = self.page_count
        self.page_count += 1
        self._handle.seek(page_id * self.page_size)
        self._handle.write(bytes(self.page_size))
        return page_id

    def free(self, page_id: int) -> None:
        """Push *page_id* onto the free-list for later reuse."""
        page = Page(page_id, bytearray(self.page_size), self.page_size)
        _FREE_LINK.pack_into(page.data, 0, self.free_head)
        self.write_page(page)
        self.free_head = page_id

    def free_page_ids(self) -> List[int]:
        """The free-list, head first (diagnostics and tests)."""
        out: List[int] = []
        page_id = self.free_head
        while page_id:
            out.append(page_id)
            page = self.read_page(page_id)
            (page_id,) = _FREE_LINK.unpack_from(page.data, 0)
        return out

    def data_page_ids(self) -> Iterator[int]:
        """The data chain, in scan order."""
        page_id = self.first_data
        seen = 0
        while page_id:
            yield page_id
            page = self.read_page(page_id)
            page_id = page.next_page
            seen += 1
            if seen > self.page_count:
                raise StorageError(
                    f"{self.path}: data-page chain is cyclic "
                    f"(visited {seen} pages of {self.page_count})"
                )

    def close(self) -> None:
        """Persist the header and release the file handle."""
        if not self._handle.closed:
            self.sync_header()
            self._handle.close()

    def __repr__(self) -> str:
        return (
            f"PageFile({self.path!r}, pages={self.page_count}, "
            f"rows={self.row_count})"
        )


class FileManager:
    """The directory of page files — one per relation — plus I/O counters."""

    def __init__(self, directory: str,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.directory = directory
        self.page_size = page_size
        self._files: Dict[str, PageFile] = {}
        #: physical page reads/writes across every file (telemetry)
        self.pages_read = 0
        self.pages_written = 0
        os.makedirs(directory, exist_ok=True)

    def path_for(self, relation: str) -> str:
        return os.path.join(self.directory, relation_filename(relation))

    def exists(self, relation: str) -> bool:
        return relation in self._files or os.path.exists(self.path_for(relation))

    def open(self, relation: str, create: bool = False) -> PageFile:
        """The relation's page file, opened (or created) once."""
        file = self._files.get(relation)
        if file is None:
            path = self.path_for(relation)
            if create and not os.path.exists(path):
                file = PageFile(path, self.page_size, create=True)
            else:
                file = PageFile(path, self.page_size)
            self._files[relation] = file
        return file

    def drop(self, relation: str) -> None:
        """Close and delete the relation's page file."""
        file = self._files.pop(relation, None)
        if file is not None:
            file.close()
        path = self.path_for(relation)
        if os.path.exists(path):
            os.remove(path)

    def rename(self, source: str, target: str) -> None:
        """Atomically swap *source*'s file in as *target* (Restruct)."""
        file = self._files.pop(source, None)
        if file is not None:
            file.close()
        old = self._files.pop(target, None)
        if old is not None:
            old.close()
        os.replace(self.path_for(source), self.path_for(target))
        self._files[target] = PageFile(self.path_for(target), self.page_size)

    def copy_file(
        self,
        relation: str,
        target: "FileManager",
        newer: Callable[[int], Optional[Page]],
    ) -> None:
        """Copy *relation*'s page file into *target*, image by image.

        *newer* returns a more recent image of a page than the file
        holds (a dirty buffer-pool frame) or None.  No record is
        decoded, one page is held at a time, the copy's header takes
        the live fields, and neither manager counts the traffic as
        page I/O.
        """
        source = self.open(relation)
        copy = PageFile(target.path_for(relation), source.page_size, create=True)
        for page_id in range(1, source.page_count):
            copy.write_page(newer(page_id) or source.read_page(page_id))
        copy.page_count = source.page_count
        copy.free_head = source.free_head
        copy.first_data = source.first_data
        copy.last_data = source.last_data
        copy.row_count = source.row_count
        copy.sync_header()
        target._files[relation] = copy

    def read_page(self, relation: str, page_id: int) -> Page:
        """One counted physical page read."""
        self.pages_read += 1
        return self.open(relation).read_page(page_id)

    def write_page(self, relation: str, page: Page) -> None:
        """One counted physical page write."""
        self.pages_written += 1
        self.open(relation).write_page(page)

    def files(self) -> Dict[str, PageFile]:
        """The open page files, by relation name."""
        return dict(self._files)

    def close(self) -> None:
        """Close every open page file (headers synced)."""
        for file in self._files.values():
            file.close()
        self._files.clear()

    def __repr__(self) -> str:
        return (
            f"FileManager({self.directory!r}, files={len(self._files)}, "
            f"read={self.pages_read}, written={self.pages_written})"
        )

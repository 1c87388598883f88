"""Property-based tests for the page table, address space and mappability."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import SCALED_GEOMETRY
from repro.vm.addrspace import AddressSpace
from repro.vm.mappability import mappable_bytes, mappable_ranges
from repro.vm.pagetable import MappingConflictError, PageTable

G = SCALED_GEOMETRY
BASE, MID, LARGE = G.base_size, G.mid_size, G.large_size
LVL_BASE, LVL_MID, LVL_LARGE = 0, 1, 2  # geometry level indices
VA0 = 0x7000_0000_0000

page_specs = st.lists(
    st.tuples(st.integers(0, 63), st.sampled_from((LVL_BASE, LVL_MID, LVL_LARGE))),
    min_size=1,
    max_size=40,
)


@given(page_specs)
@settings(max_examples=60)
def test_pagetable_mappings_never_overlap(specs):
    """Whatever map/conflict sequence runs, accepted mappings are disjoint."""
    table = PageTable(G)
    accepted = []
    for slot, size in specs:
        va = VA0 + slot * MID
        va = G.align_down(va, size)
        try:
            table.map_page(va, size, pfn=slot)
            accepted.append((va, G.bytes_for(size)))
        except MappingConflictError:
            continue
    # Disjointness check over accepted intervals.
    accepted.sort()
    for (s1, l1), (s2, _) in zip(accepted, accepted[1:]):
        assert s1 + l1 <= s2
    # Every accepted byte translates to exactly its own mapping.
    for start, length in accepted:
        m = table.translate(start)
        assert m is not None and m.va == start
        assert table.translate(start + length - 1) is m


@given(page_specs)
@settings(max_examples=40)
def test_pagetable_unmap_restores_translation_holes(specs):
    table = PageTable(G)
    live = {}
    for slot, size in specs:
        va = G.align_down(VA0 + slot * MID, size)
        try:
            table.map_page(va, size, pfn=slot)
            live[va] = size
        except MappingConflictError:
            pass
    for va, size in list(live.items()):
        table.unmap(va, size)
        assert table.translate(va) is None
    assert table.mapped_bytes() == 0


@given(
    st.lists(
        st.integers(1, 8 * MID // BASE),  # lengths in pages
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=60)
def test_mid_mappable_superset_of_large_mappable(lengths):
    """Paper invariant: all 1GB-mappable memory is 2MB-mappable."""
    aspace = AddressSpace(G)
    for pages in lengths:
        aspace.mmap(pages * BASE)
    large = mappable_bytes(aspace, LVL_LARGE)
    mid = mappable_bytes(aspace, LVL_MID)
    assert large <= mid <= aspace.mapped_bytes
    assert large % LARGE == 0
    assert mid % MID == 0


@given(
    st.lists(st.tuples(st.integers(1, 64), st.booleans()), min_size=1, max_size=30),
    st.integers(0, 2**16),
)
@settings(max_examples=40)
def test_addrspace_mmap_munmap_roundtrip(ops, seed):
    import random

    rng = random.Random(seed)
    aspace = AddressSpace(G)
    live = []
    expected = 0
    for pages, do_free in ops:
        vma = aspace.mmap(pages * BASE)
        live.append(vma.start)
        expected += pages * BASE
        if do_free and live:
            start = live.pop(rng.randrange(len(live)))
            removed = aspace.munmap(start)
            expected -= removed.length
        assert aspace.mapped_bytes == expected
    # All live VMAs are disjoint.
    vmas = aspace.iter_vmas()
    for a, b in zip(vmas, vmas[1:]):
        assert a.end <= b.start


@given(st.lists(st.integers(1, 100), min_size=1, max_size=20))
@settings(max_examples=40)
def test_extents_cover_exactly_the_vmas(lengths):
    aspace = AddressSpace(G)
    for pages in lengths:
        aspace.mmap(pages * BASE)
    total_extent = sum(e.length for e in aspace.iter_extents())
    assert total_extent == aspace.mapped_bytes
    # Extents are disjoint, ordered, and non-adjacent (else they'd merge).
    extents = aspace.iter_extents()
    for a, b in zip(extents, extents[1:]):
        assert a.end < b.start or a.name != b.name


@given(st.integers(0, 40), st.sampled_from((LVL_BASE, LVL_MID, LVL_LARGE)))
def test_mappable_ranges_are_aligned_and_inside(pages, size):
    aspace = AddressSpace(G)
    if pages == 0:
        return
    vma = aspace.mmap(pages * BASE)
    for start, end in mappable_ranges(vma, size, G):
        assert start % G.bytes_for(size) == 0
        assert end - start == G.bytes_for(size)
        assert vma.start <= start and end <= vma.end


def _naive_extents(aspace):
    """Merged same-name runs recomputed from the VMAs, no cache."""
    extents = []
    for vma in aspace.iter_vmas():
        if extents and extents[-1][1] == vma.start and extents[-1][2] == vma.name:
            extents[-1] = (extents[-1][0], vma.end, vma.name)
        else:
            extents.append((vma.start, vma.end, vma.name))
    return extents


extent_ops = st.lists(
    st.tuples(
        st.sampled_from(("mmap", "mmap", "munmap", "query")),
        st.integers(1, 40),
        st.sampled_from(("heap", "heap", "stack")),
    ),
    min_size=1,
    max_size=50,
)


@given(extent_ops)
@settings(max_examples=80)
def test_cached_extents_match_recomputation(ops):
    """The generation-cached extents (spliced on mmap, rebuilt after
    munmap) always equal a fresh merge of the VMAs, and extent_of agrees
    with them at every VMA boundary."""
    aspace = AddressSpace(G)
    starts = []
    for op, n, name in ops:
        if op == "mmap":
            starts.append(aspace.mmap(n * BASE, name=name).start)
        elif op == "munmap" and starts:
            aspace.munmap(starts.pop(n % len(starts)))
        extents = aspace.iter_extents()
        assert [(e.start, e.end, e.name) for e in extents] == _naive_extents(aspace)
        for vma in aspace.iter_vmas():
            for addr in (vma.start, vma.end - 1):
                extent = aspace.extent_of(addr)
                assert extent.start <= addr < extent.end
                assert extent in extents
            assert aspace.extent_of(vma.end) in (None, *extents)
        assert aspace.extent_of(0) is None

//! Encoding a dataset into its transaction table sizes the table up
//! front and copies each row as it is: `to_transactions` (and the delta
//! recount's sub-table, built by the same code) reallocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use divexplorer::DatasetBuilder;

/// A `System` wrapper that counts, per thread, every reallocation — a
/// table grown by doubling shows up here, a pre-sized one does not.
struct CountingAllocator;

thread_local! {
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn reallocations() -> u64 {
    REALLOCATIONS.with(Cell::get)
}

#[test]
fn encoding_a_dataset_reallocates_nothing() {
    // 1,000 rows of 3 attributes: neither 3,000 items nor 1,001 offsets
    // is a capacity that doubling from empty would land on exactly.
    let n = 1_000;
    let codes =
        |modulus: usize| -> Vec<u16> { (0..n).map(|r| ((r * 7) % modulus) as u16).collect() };
    let mut b = DatasetBuilder::new();
    b.categorical("a", &["0", "1", "2"], &codes(3));
    b.categorical("b", &["0", "1"], &codes(2));
    b.categorical("c", &["0", "1", "2", "3", "4"], &codes(5));
    let data = b.build().unwrap();

    let before = reallocations();
    let db = data.to_transactions();
    assert_eq!(
        reallocations() - before,
        0,
        "the table grew while it was filled"
    );

    assert_eq!(db.len(), n);
    for r in 0..n {
        assert_eq!(db.transaction(r), data.row_items(r).as_slice());
    }
}

//! Deliberately dirty: the path from the hot region to the allocation
//! runs through functions returning arrays. The `;` of `[T; N]` must
//! not end the signature, or their bodies (and the calls in them)
//! vanish from the call graph.

pub fn leaf_alloc(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}

pub fn lanes(n: usize) -> ([u8; 4], [u8; 4]) {
    let v = leaf_alloc(n);
    ([v.len() as u8; 4], [0; 4])
}

pub fn middle(n: usize) -> [u8; 4] {
    lanes(n).0
}

// phylint: hot
pub fn hot_entry(x: u8) -> u8 {
    middle(4)[0].wrapping_add(x)
}
// phylint: end-hot

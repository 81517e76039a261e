//! `compress_auto` is a function of its input: the bytes it writes must
//! not depend on what the process read before. This file holds one test
//! and is its own binary because the obs registry is process-global —
//! beside other tests, their scans would change the counters this one
//! needs to control.

use scc_core::{compress_auto, Layout};

#[test]
fn point_lookups_do_not_change_what_the_next_compress_writes() {
    scc_obs::set_enabled(true);
    let values: Vec<u32> =
        (0..20_000u32).map(|i| if i % 91 == 0 { i * 500 } else { i % 128 }).collect();

    let (first, _) = compress_auto(&values).expect("a compressible column");
    assert_eq!(first.layout(), Layout::Vertical);
    let first_bytes = first.to_bytes();

    for i in 0..1_000 {
        let x = (i * 37) % values.len();
        assert_eq!(first.try_get(x).unwrap(), values[x]);
    }

    let (second, _) = compress_auto(&values).expect("a compressible column");
    assert_eq!(second.layout(), Layout::Vertical);
    assert_eq!(second.to_bytes(), first_bytes);
}

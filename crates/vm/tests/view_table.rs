//! The handler's view table is finite. Alone in its test binary: while
//! the table is full no other test in the process could map a view.

use dsm_vm::cluster::ACC_WRITE;
use dsm_vm::{os_page_size, ClusterView};

#[test]
fn a_full_table_is_an_error_and_a_dropped_view_frees_its_slot() {
    let ps = os_page_size();
    let mut views = Vec::new();
    let err = loop {
        match ClusterView::new(1, ps) {
            Ok(view) => views.push(view),
            Err(err) => break err,
        }
        assert!(views.len() < 1 << 16, "the table never filled");
    };
    assert!(err.to_string().contains("view table full"), "{err}");

    views.pop();
    let view = ClusterView::new(1, ps).expect("the dropped view's slot is free again");
    view.set_access(0, ACC_WRITE);
    view.write::<u64>(8, 7);
    assert_eq!(view.read::<u64>(8), 7);
    assert!(ClusterView::new(1, ps).is_err());
}

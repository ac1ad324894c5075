#[test]
fn integration_test_use_does_not_count() {
    assert_eq!(alpha::only_tested(), 1);
}

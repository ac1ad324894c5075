//! Calls into `alpha`. See [`alpha::only_in_docs`], which no code calls.

fn main() {
    // `alpha::only_in_docs()` appears here only inside a comment.
    println!("{}", alpha::used_by_beta());
}

//! Calls into `alpha`. See [`alpha::only_in_docs`], which no code calls.

fn main() {
    // `alpha::only_in_docs()` appears here only inside a comment.
    println!("{}", alpha::used_by_beta());
    let strided = alpha::Strided::with_stride(2);
    // A binding named like the dead method: a `let`, not a call.
    let stride = strided.steps(8);
    println!("{stride}");
}

fn main() {
    println!("{}", alpha::used_by_example());
}

//! The paper's PALs as measured bytecode: direct block chaining vs
//! block-cache lookup dispatch, plus the worker-count quote pin.

use sea_bench::driver::render_vm;
use sea_bench::experiments::vm_quotes_identical_across_worker_counts;

fn main() {
    print!("{}", render_vm(vm_quotes_identical_across_worker_counts()));
}

/* wait4(2) for the benchmark: reap one child and return its peak
   resident set size.  OCaml's Unix library has no getrusage/wait4, and
   the peak memory of an analysis must be read from outside the process
   that did the work. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* bench_wait4 : int -> int * int * int
   (kind, code, maxrss_kb): kind 0 = exited with status [code],
   1 = killed by signal [code].  Retries on EINTR. */
value bench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  int err = 0;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  res = caml_alloc_tuple(3);
  if (WIFSIGNALED(status)) {
    Store_field(res, 0, Val_int(1));
    Store_field(res, 1, Val_int(WTERMSIG(status)));
  } else {
    Store_field(res, 0, Val_int(0));
    Store_field(res, 1, Val_int(WEXITSTATUS(status)));
  }
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

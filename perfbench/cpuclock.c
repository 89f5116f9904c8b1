/* The process's CPU clock (user + system time of all its threads), in
   nanoseconds.  On a virtual machine it leaves out the time the
   hypervisor gives this guest's vCPUs to others (steal), which a
   wall clock counts. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_cpu_ns(value unit)
{
  struct timespec t;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return Val_long((long)t.tv_sec * 1000000000L + t.tv_nsec);
}

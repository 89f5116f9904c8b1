(* Timing and the estimator that turns a run's timings into one number.

   Operations are timed on the process's CPU clock.  On the shared
   virtual machine this benchmark was built on, the wall clock drifts by
   tens of percent for minutes at a time while the hypervisor runs other
   guests on our vCPUs (steal time); the CPU clock leaves that time out.
   A run repeats whole passes over the same operations for its time
   budget; each timed pass yields its own quantiles and rate, and the
   run reports the median of each over its passes (see README.md). *)

(* CPU time of the process, all threads, in nanoseconds. *)
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]

(* CPU seconds. *)
let now () = float (cpu_ns ()) *. 1e-9

(* Wall-clock seconds: only for how long a run lasts. *)
let wall () = Unix.gettimeofday ()

(* Nearest-rank quantile: the smallest value with at least [q] of the
   sample at or below it. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median a = quantile a 0.5

let sum = Array.fold_left ( +. ) 0.

(* [fold_min best xs] keeps in [best] the element-wise minimum. *)
let fold_min best xs =
  Array.iteri (fun i x -> if x < best.(i) then best.(i) <- x) xs

(* Words allocated since program start on every domain that has run,
   terminated race domains included (OCaml 5 keeps their counters). *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Peak resident set size of this process, from the kernel's own
   accounting (VmHWM), in kB. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f"
            Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

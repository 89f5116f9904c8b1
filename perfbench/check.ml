(* Output checks.  Each is independent of the answer it checks: the
   certifier replays the schedule with its own simulator, the list
   schedule bounds the NOPs from above, and small blocks are checked
   against every legal order.  None compares with a stored output. *)

open Pipesched_ir
open Pipesched_machine
module Json = Pipesched_prelude.Json
module List_sched = Pipesched_sched.List_sched
module Certify = Pipesched_verify.Certify

let certified (sp : Trace.spanner) machine blk result =
  Certify.certified (sp.run "Certify.check" (fun () -> Certify.check machine blk result))

(* NOPs of the machine-independent list schedule the search starts
   from; no answer may be worse. *)
let seed_nops (sp : Trace.spanner) machine blk =
  let dag = Dag.of_block blk in
  let order =
    sp.run "List_sched.schedule" (fun () ->
        List_sched.schedule List_sched.Max_distance dag)
  in
  (sp.run "Omega.evaluate" (fun () -> Omega.evaluate machine dag ~order)).Omega.nops

(* Both the certifier and the seed bound. *)
let schedule_ok sp machine blk (r : Omega.result) =
  certified sp machine blk r && r.Omega.nops <= seed_nops sp machine blk

(* The least NOP count over every legal order of the DAG, each scored by
   Omega on the default pipes (the space the exact backends search).
   Exponential: only for blocks of at most [oracle_max] instructions. *)
let oracle_max = 8

let exhaustive_min machine dag =
  let n = Dag.length dag in
  let indeg = Array.init n (fun v -> Array.length (Dag.preds_arr dag v)) in
  let used = Array.make n false and order = Array.make n 0 in
  let best = ref max_int in
  let rec go k =
    if k = n then
      best := min !best (Omega.evaluate machine dag ~order:(Array.copy order)).Omega.nops
    else
      for v = 0 to n - 1 do
        if (not used.(v)) && indeg.(v) = 0 then begin
          used.(v) <- true;
          order.(k) <- v;
          Array.iter (fun w -> indeg.(w) <- indeg.(w) - 1) (Dag.succs_arr dag v);
          go (k + 1);
          Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1) (Dag.succs_arr dag v);
          used.(v) <- false
        end
      done
  in
  go 0;
  !best

(* A server response as a schedule, or [None] when it is not a
   well-formed successful answer. *)
type answer = { result : Omega.result; completed : bool; status : string }

let answer_of_response line =
  let ( let* ) = Option.bind in
  let* j = Result.to_option (Json.parse line) in
  let* ok = Option.bind (Json.member "ok" j) Json.to_bool_opt in
  let ints k =
    let* l = Option.bind (Json.member k j) Json.to_list_opt in
    let a = List.filter_map Json.to_int_opt l in
    if List.length a = List.length l then Some (Array.of_list a) else None
  in
  let* nops = Option.bind (Json.member "nops" j) Json.to_int_opt in
  let* completed = Option.bind (Json.member "completed" j) Json.to_bool_opt in
  let* status = Option.bind (Json.member "status" j) Json.to_string_opt in
  let* order = ints "order" in
  let* eta = ints "eta" in
  let* issue = ints "issue" in
  let* pipes = ints "pipes" in
  if ok then Some { result = { Omega.order; eta; issue; pipes; nops }; completed; status }
  else None

let same_schedule (a : Omega.result) (b : Omega.result) =
  a.Omega.nops = b.Omega.nops && a.Omega.order = b.Omega.order
  && a.Omega.eta = b.Omega.eta && a.Omega.issue = b.Omega.issue
  && a.Omega.pipes = b.Omega.pipes

(* The benchmark command:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--outcomes FILE]

   sets the workload up from the seed, runs whole passes over its
   operations for S seconds, checks every output and prints one JSON
   object as its last line: the end-to-end metrics (--trace 0) or the
   per-layer metrics of a traced run (--trace 1).  See README.md. *)

(* Set-ups per run; setup_s is their median. *)
let setups = 3

type value = Int of int | Num of float

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-dup|compile-paper|exact-hard --seed N \
     --seconds S --trace 0|1 [--outcomes FILE]";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and outcomes = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); go rest
    | "--outcomes" :: v :: rest -> outcomes := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let w = List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all in
  match (w, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
    (w, seed, seconds, trace, !outcomes)
  | _ -> usage ()

(* One untraced pass: every operation timed on its own, outputs checked
   afterwards.  Returns per-operation CPU seconds, the words allocated by
   the operations, and the failures. *)
let pass (inst : Workloads.instance) ~pass_no ops =
  inst.Workloads.reset ops;
  let lat = Array.make inst.Workloads.n infinity in
  let w0 = Est.words () in
  Array.iter
    (fun i ->
      let t0 = Est.cpu_ns () in
      (* a raise leaves the output missing or stale; the check fails it *)
      (try inst.Workloads.op i with _ -> ());
      lat.(i) <- float (Est.cpu_ns () - t0) *. 1e-9)
    ops;
  let words = Est.words () -. w0 in
  (lat, words, inst.Workloads.check ~pass:pass_no ops)

let print_result ~correct ~attempted ~failed metrics =
  let field (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (match v with
       | Int i -> string_of_int i
       | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
       | Num _ -> "null")
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let () =
  let w, seed, seconds, traced, outcomes = args () in
  let drawn = w.Workloads.select ~seed in
  let setup_times, inst =
    let rec go k acc =
      let t0 = Est.now () in
      let inst = w.Workloads.setup ~seed drawn in
      let acc = (Est.now () -. t0) :: acc in
      if k = setups then (Array.of_list acc, inst) else go (k + 1) acc
    in
    go 1 []
  in
  let n = inst.Workloads.n in
  let best = Array.make n infinity in
  let attempted = ref 0 and failed = ref 0 in
  let start = Est.wall () in
  let elapsed () = Est.wall () -. start in
  let all = Array.init n Fun.id in
  (* One pass over every operation; returns its per-operation times and
     the words it allocated. *)
  let untraced pass_no =
    let lat, words, f = pass inst ~pass_no all in
    attempted := !attempted + n;
    failed := !failed + f;
    (lat, words)
  in
  let correct () = !failed = 0 && !attempted > 0 in
  if not traced then begin
    (* Pass 0 warms up and is checked in full; every later pass is timed
       and reports its own median, tail and rate, and the run reports
       the median of each over its timed passes. *)
    let _, words0 = untraced 0 in
    let p50s = ref [] and tails = ref [] and rates = ref [] in
    let passes = ref 1 in
    while !passes = 1 || elapsed () < seconds do
      let lat, _ = untraced !passes in
      p50s := Est.median lat :: !p50s;
      tails := Est.quantile lat w.Workloads.tail_q :: !tails;
      rates := (float n /. Est.sum lat) :: !rates;
      incr passes
    done;
    let over_passes l = Est.median (Array.of_list l) in
    let proved, nops = inst.Workloads.counts () in
    Option.iter
      (fun path ->
        write_lines path (inst.Workloads.outcomes ()))
      outcomes;
    print_result ~correct:(correct ()) ~attempted:!attempted ~failed:!failed
      [ ("setup_s", "s", Num (Est.median setup_times));
        ("p50_ms", "ms", Num (over_passes !p50s *. 1e3));
        ("tail_ms", "ms", Num (over_passes !tails *. 1e3));
        ("ops_per_s", "1/s", Num (over_passes !rates));
        ("proved", "count", Int proved);
        ("nops_total", "count", Int nops);
        ("alloc_mb", "MB", Num (words0 *. float (Sys.word_size / 8) /. 1e6));
        ("peak_rss_mb", "MB", Num (Est.peak_rss_kb () /. 1024.)) ]
  end
  else begin
    (* Rounds of one untraced pass then one traced replay, until the
       time is spent.  Each layer, and the untraced operation it is
       compared with, keeps its per-operation minimum over the rounds. *)
    let tr = Trace.create () in
    let tally = Workloads.tally () in
    let layer_best = Hashtbl.create 32 in
    let stages = Array.make n infinity in
    let round = ref 0 in
    while !round = 0 || elapsed () < seconds do
      Est.fold_min best (fst (untraced !round));
      Trace.clear tr;
      let a, f = inst.Workloads.replay tr ~first:(!round = 0) tally in
      attempted := !attempted + a;
      failed := !failed + f;
      Hashtbl.iter
        (fun layer a ->
          match Hashtbl.find_opt layer_best layer with
          | Some b -> Est.fold_min b a
          | None -> Hashtbl.replace layer_best layer a)
        (Trace.per_req tr ~n);
      Est.fold_min stages (Trace.child_sum tr ~root:inst.Workloads.root ~n);
      if !round = 0 then begin
        (try Sys.mkdir "perfbench-out" 0o755 with Sys_error _ -> ());
        Trace.write tr
          (Printf.sprintf "perfbench-out/trace-%s-%d.jsonl" w.Workloads.name seed)
      end;
      incr round
    done;
    let layer name scale =
      match Hashtbl.find_opt layer_best name with
      | None -> 0.
      | Some a ->
        let called = List.filter Float.is_finite (Array.to_list a) in
        if called = [] then 0. else Est.median (Array.of_list called) *. scale
    in
    let us name = (name ^ "_us", "us", Num (layer name 1e6)) in
    let ms name = (name ^ "_ms", "ms", Num (layer name 1e3)) in
    let count name v = (name, "count", Int v) in
    let t = tally in
    let metrics =
      [ us "Generator.of_seed"; us "Json.parse"; us "Json.to_string";
        us "Block.parse"; us "Machine.fingerprint"; us "Lru.find";
        us "Canonical.of_block";
        ("Canonical.of_block_words", "words",
         Num (match t.Workloads.canon_words with
              | [] -> 0.
              | l -> Est.median (Array.of_list l)));
        us "Canonical.apply";
        count "Server.hits" t.Workloads.server_hits;
        count "Server.misses" t.Workloads.server_misses;
        us "Dag.of_block"; us "List_sched.schedule"; us "Omega.evaluate";
        us "Optimal.schedule";
        count "Optimal.omega_calls" t.Workloads.omega_calls;
        count "Optimal.memo_hits" t.Workloads.memo_hits;
        count "Optimal.memo_misses" t.Workloads.memo_misses;
        count "Optimal.curtailed" t.Workloads.curtailed;
        ms "Cp.solve";
        count "Cp.decisions" t.Workloads.decisions;
        count "Cp.conflicts" t.Workloads.conflicts;
        count "Cp.propagations" t.Workloads.propagations;
        count "Cp.learned" t.Workloads.learned;
        count "Cp.restarts" t.Workloads.restarts;
        ms "Portfolio.run";
        count "Portfolio.wins_bnb" t.Workloads.wins_bnb;
        count "Portfolio.wins_cp" t.Workloads.wins_cp;
        count "Portfolio.neither" t.Workloads.neither;
        ("Portfolio.neither_s", "s", Num t.Workloads.neither_s);
        ("Portfolio.overhead_vs_best", "ratio",
         Num (t.Workloads.portfolio_s /. Float.min t.Workloads.bnb_s t.Workloads.cp_s));
        us "Certify.check";
        ("trace.closure", "ratio", Num (Est.sum stages /. Est.sum best));
        ("trace.overhead", "ratio",
         Num (layer inst.Workloads.root 1. /. Est.median best)) ]
    in
    print_result ~correct:(correct ()) ~attempted:!attempted ~failed:!failed metrics
  end

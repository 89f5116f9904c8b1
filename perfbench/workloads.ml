(* The three workloads.  Each is set up from a seed, runs one closed-loop
   caller over the program's public functions in this process, checks
   every output, and can replay its operations stage by stage under the
   tracer.  Why each exists is in README.md. *)

open Pipesched_ir
open Pipesched_machine
module Json = Pipesched_prelude.Json
module Lru = Pipesched_prelude.Lru
module Budget = Pipesched_prelude.Budget
module List_sched = Pipesched_sched.List_sched
module Optimal = Pipesched_core.Optimal
module Portfolio = Pipesched_core.Portfolio
module Scheduler = Pipesched_core.Scheduler
module Cp = Pipesched_solve.Cp
module Server = Pipesched_serve.Server
module Generator = Pipesched_synth.Generator

(* Counters gathered by the first traced replay of a run. *)
type tally = {
  mutable omega_calls : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable curtailed : int;
  mutable decisions : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable learned : int;
  mutable restarts : int;
  mutable wins_bnb : int;
  mutable wins_cp : int;
  mutable neither : int;
  mutable neither_s : float;
  mutable bnb_s : float;
  mutable cp_s : float;
  mutable portfolio_s : float;
  mutable server_hits : int;
  mutable server_misses : int;
  mutable canon_words : float list;
}

let tally () =
  { omega_calls = 0; memo_hits = 0; memo_misses = 0; curtailed = 0;
    decisions = 0; conflicts = 0; propagations = 0; learned = 0;
    restarts = 0; wins_bnb = 0; wins_cp = 0; neither = 0; neither_s = 0.;
    bnb_s = 0.; cp_s = 0.; portfolio_s = 0.; server_hits = 0;
    server_misses = 0; canon_words = [] }

type instance = {
  n : int;  (** operations per pass *)
  reset : int array -> unit;
      (** untimed, before a pass over these operations: clears their
          outputs, so an operation that raises leaves none to pass *)
  op : int -> unit;  (** operation [i]: the timed call *)
  check : pass:int -> int array -> int;
      (** checks these operations' outputs of a pass (pass 0: all of
          them); failures *)
  counts : unit -> int * int;  (** proved, NOPs summed — of the first pass *)
  outcomes : unit -> string list;  (** per-operation outcome of the first pass *)
  root : string;  (** the span of one operation in a replay *)
  replay : Trace.t -> first:bool -> tally -> int * int;
      (** a traced pass over the operations, compared with the last
          untraced pass: operations checked, failed *)
}

type workload = {
  name : string;
  tail_q : float;  (** the tail percentile reported as tail_ms *)
  select : seed:int -> int array;
      (** the corpus, as stream indices, from generator parameters
          alone; drawn once per process and not part of setup_s *)
  setup : seed:int -> int array -> instance;
}

let simulation = Machine.Presets.simulation

(* Blocks the solver probe samples on workloads whose own path calls
   neither Cp nor Portfolio, the gated ones, so that those layers are
   measured on a gated workload. *)
let probe_n = 200

let timed (sp : Trace.spanner) layer f =
  let t0 = Est.now () in
  let v = sp.run layer f in
  (v, Est.now () -. t0)

let add_optimal t (s : Optimal.stats) =
  t.omega_calls <- t.omega_calls + s.Optimal.omega_calls;
  t.memo_hits <- t.memo_hits + s.Optimal.memo_hits;
  t.memo_misses <- t.memo_misses + s.Optimal.memo_misses;
  if not s.Optimal.completed then t.curtailed <- t.curtailed + 1

let add_cp t (s : Cp.stats) =
  t.decisions <- t.decisions + s.Cp.decisions;
  t.conflicts <- t.conflicts + s.Cp.conflicts;
  t.propagations <- t.propagations + s.Cp.propagations;
  t.learned <- t.learned + s.Cp.learned;
  t.restarts <- t.restarts + s.Cp.restarts

let add_portfolio t (p : Portfolio.outcome) secs =
  t.portfolio_s <- t.portfolio_s +. secs;
  match p.Portfolio.winner with
  | Some Portfolio.Bnb -> t.wins_bnb <- t.wins_bnb + 1
  | Some Portfolio.Cp -> t.wins_cp <- t.wins_cp + 1
  | None ->
    t.neither <- t.neither + 1;
    t.neither_s <- t.neither_s +. secs

(* Every proof names the same optimum and no schedule beats it. *)
let agree ~proofs ~bests =
  match List.filter_map Fun.id proofs with
  | [] -> true
  | v :: rest -> List.for_all (( = ) v) rest && List.for_all (fun b -> b >= v) bests

(* Runs [f] for operation [i] under the tracer; a raise counts as a
   failed check. *)
let guarded tr i f =
  Trace.set_req tr i;
  match f () with ok -> ok | exception _ -> false

let count_failed_of ops f =
  Array.fold_left (fun acc i -> if f i then acc else acc + 1) 0 ops

(* Operations checked and failed, for the traced replays and probes. *)
let checked n f = (n, count_failed_of (Array.init n Fun.id) f)
let ( +: ) (a, f) (b, g) = (a + b, f + g)

(* Words a call allocates, less what reading the counter allocates. *)
let counter_cost =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let with_words t f =
  let w0 = Gc.minor_words () in
  let v = f () in
  t.canon_words <- (Gc.minor_words () -. w0 -. counter_cost) :: t.canon_words;
  v

(* Regenerates block [i] of the corpus under the tracer: the set-up's
   own cost per block, and a check that generation is a pure function of
   the seed. *)
let generator_probe tr ~gen blocks =
  let sp = Trace.spanner tr in
  checked (Array.length blocks) (fun i ->
      guarded tr i (fun () ->
          Block.equal blocks.(i) (sp.run "Generator.of_seed" (fun () -> gen i))))

let request ~id machine_json blk =
  Json.Assoc
    [ ("id", Json.Int id); ("machine", machine_json);
      ("block", Json.String (Block.to_string blk)) ]

(* The exact backends the workload's path does not call, each alone and
   raced, on a sample of its blocks: costs, counters and agreement. *)
let solver_probe tr t ~options ~machine blocks =
  let sp = Trace.spanner tr in
  let lambda = options.Optimal.lambda in
  checked (min probe_n (Array.length blocks)) (fun i ->
      guarded tr i (fun () ->
          sp.run "probe.solvers" (fun () ->
              let dag = Dag.of_block blocks.(i) in
              let b, bs = timed sp "probe.bnb" (fun () -> Optimal.schedule ~options machine dag) in
              let c, cs = timed sp "Cp.solve" (fun () -> Cp.solve ~lambda machine dag) in
              let p, ps = timed sp "Portfolio.run" (fun () -> Portfolio.run ~options machine dag) in
              t.bnb_s <- t.bnb_s +. bs;
              t.cp_s <- t.cp_s +. cs;
              add_cp t c.Cp.stats;
              add_portfolio t p ps;
              let bnb_proof =
                if b.Optimal.stats.Optimal.completed then Some b.Optimal.best.Omega.nops else None
              in
              agree
                ~proofs:[ bnb_proof; c.Cp.stats.Cp.proved; p.Portfolio.proved ]
                ~bests:[ b.Optimal.best.Omega.nops; c.Cp.best.Omega.nops; p.Portfolio.best.Omega.nops ])))

(* The outcome contract every exact backend states in scheduler.mli. *)
let contract (o : Scheduler.outcome) =
  o.Scheduler.completed = (o.Scheduler.status = Budget.Complete)
  && o.Scheduler.completed = (o.Scheduler.proved = Some o.Scheduler.best.Omega.nops)

let backend name = Option.get (Scheduler.find name)

(* ------------------------------------------------------------------ *)
(* serve-dup                                                           *)

(* The hot pool, as stream indices: a stratified draw of the mix's
   blocks of at most 20 statements, chosen on the generator's parameters
   alone.  The server never caches a curtailed answer, so every
   presentation of a class it cannot prove is a full search to lambda
   (about 60 ms against 0.1 ms for a hit); the mix's few such blocks,
   which start at about 21 statements, would make the seed rather than
   the program decide a pass's cost.  compile-paper keeps the whole mix. *)
let hot_pool ~classes ~seed =
  Corpus.stratified ~keep:(fun p -> p.Generator.statements <= 20) ~seed ~n:classes ()

let serve_dup ~seed drawn =
  let classes = Array.length drawn and copies = 10 in
  let blocks = Array.map (Corpus.paper_block ~seed) drawn in
  let n = classes * copies in
  (* Request [i] is presentation [perm.(i)]; presentation [j] shows
     class [j mod classes]. *)
  let perm = Corpus.permutation ~seed n in
  let klass = Array.map (fun j -> j mod classes) perm in
  let reqs = Array.map (fun j -> Corpus.present ~seed j blocks.(j mod classes)) perm in
  let lines = Array.mapi (fun i b -> Json.to_string (request ~id:i (Json.String "simulation") b)) reqs in
  let server = ref (Server.create ()) in
  let resp = Array.make n "" and first = Array.make n "" in
  let proved = ref 0 and nops = ref 0 in
  let check ~pass ops =
    if pass > 0 then count_failed_of ops (fun i -> first.(i) <> "" && resp.(i) = first.(i))
    else begin
      let answers = Array.map Check.answer_of_response resp in
      (* The proved optimum of each class, from any completed answer. *)
      let opt = Array.make classes (-1) in
      Array.iteri
        (fun i -> function
          | Some a when a.Check.completed -> opt.(klass.(i)) <- a.Check.result.Omega.nops
          | _ -> ())
        answers;
      let cold = Server.create ~cache_capacity:0 () in
      let seen = Array.make classes false in
      proved := 0;
      nops := 0;
      count_failed_of ops (fun i ->
          let c = klass.(i) in
          let repeat = seen.(c) in
          seen.(c) <- true;
          let ok =
            match answers.(i) with
            | None -> false
            | Some a ->
              let r = a.Check.result in
              if a.Check.completed then incr proved;
              nops := !nops + r.Omega.nops;
              a.Check.completed = (a.Check.status = "Complete")
              (* every presentation of a class gets the proved optimum *)
              && (if a.Check.completed then r.Omega.nops = opt.(c) else opt.(c) < 0 || r.Omega.nops >= opt.(c))
              (* a sample of repeats (cache hits) equals a cache-off answer *)
              && ((not repeat) || i mod 10 <> 0 || Server.handle_line cold lines.(i) = resp.(i))
              && Check.schedule_ok Trace.untraced simulation reqs.(i) r
          in
          first.(i) <- (if ok then resp.(i) else "");
          ok)
    end
  in
  let replay tr ~first:first_round t =
    let sp = Trace.spanner tr in
    let lru = Lru.create ~capacity:4096 in
    let options = Optimal.default_options in
    let probes =
      if first_round then
        generator_probe tr ~gen:(fun i -> Corpus.paper_block ~seed drawn.(i)) blocks
        +: solver_probe tr t ~options ~machine:simulation blocks
      else (0, 0)
    in
    let requests =
      checked n (fun i ->
          guarded tr i (fun () ->
              let mine, completed =
                sp.run "request" (fun () ->
                    let j = Result.get_ok (sp.run "Json.parse" (fun () -> Json.parse lines.(i))) in
                    let m =
                      Option.get (Machine.Presets.find
                        (Option.get (Option.bind (Json.member "machine" j) Json.to_string_opt)))
                    in
                    let text = Option.get (Option.bind (Json.member "block" j) Json.to_string_opt) in
                    let blk = Result.get_ok (sp.run "Block.parse" (fun () -> Block.parse text)) in
                    let c = sp.run "Canonical.of_block" (fun () ->
                        if first_round then with_words t (fun () -> Canonical.of_block blk)
                        else Canonical.of_block blk)
                    in
                    let fp = sp.run "Machine.fingerprint" (fun () -> Machine.fingerprint m) in
                    let key = fp ^ "\x00bnb\x00" ^ c.Canonical.key in
                    let r, completed =
                      match sp.run "Lru.find" (fun () -> Lru.find lru key) with
                      | Some r -> (r, true)
                      | None ->
                        let dag = sp.run "Dag.of_block" (fun () -> Dag.of_block c.Canonical.block) in
                        let o = sp.run "Optimal.schedule" (fun () -> Optimal.schedule ~options m dag) in
                        if first_round then add_optimal t o.Optimal.stats;
                        let completed = o.Optimal.stats.Optimal.completed in
                        if completed then sp.run "Lru.put" (fun () -> Lru.put lru key o.Optimal.best);
                        (o.Optimal.best, completed)
                    in
                    let order = sp.run "Canonical.apply" (fun () -> Canonical.apply c r.Omega.order) in
                    let mine = { r with Omega.order } in
                    let ints a = Json.List (Array.to_list (Array.map (fun x -> Json.Int x) a)) in
                    let body =
                      Json.Assoc
                        [ ("id", Json.Int i); ("ok", Json.Bool true); ("nops", Json.Int r.Omega.nops);
                          ("completed", Json.Bool completed);
                          ("status", Json.String (if completed then "Complete" else "Curtailed_lambda"));
                          ("order", ints order); ("eta", ints r.Omega.eta);
                          ("issue", ints r.Omega.issue); ("pipes", ints r.Omega.pipes) ]
                    in
                    ignore (sp.run "Json.to_string" (fun () -> Json.to_string body));
                    (mine, completed))
              in
              (* The stage-by-stage replay must give handle_line's answer. *)
              (match Check.answer_of_response resp.(i) with
               | Some a -> Check.same_schedule a.Check.result mine && a.Check.completed = completed
               | None -> false)
              && sp.run "check" (fun () -> Check.schedule_ok sp simulation reqs.(i) mine)))
    in
    if first_round then begin
      t.server_hits <- Server.cache_hits !server;
      t.server_misses <- Server.cache_misses !server
    end;
    probes +: requests
  in
  {
    n;
    reset =
      (fun ops ->
        server := Server.create ();
        Array.iter (fun i -> resp.(i) <- "") ops);
    op = (fun i -> resp.(i) <- Server.handle_line !server lines.(i));
    check;
    counts = (fun () -> (!proved, !nops));
    outcomes =
      (fun () ->
        List.init n (fun i ->
            match Check.answer_of_response first.(i) with
            | Some a -> Printf.sprintf "%d nops=%d completed=%b" i a.Check.result.Omega.nops a.Check.completed
            | None -> Printf.sprintf "%d failed" i));
    root = "request";
    replay;
  }

(* ------------------------------------------------------------------ *)
(* compile-paper                                                       *)

let compile_paper ~seed drawn =
  let n = Array.length drawn in
  let blocks = Array.map (Corpus.paper_block ~seed) drawn in
  let options = { Optimal.default_options with Optimal.lambda = 50_000 } in
  let (module B : Scheduler.S) = backend "bnb" in
  let out = Array.make n None and first = Array.make n None in
  let proved = ref 0 and nops = ref 0 in
  let check ~pass ops =
    if pass > 0 then
      count_failed_of ops (fun i ->
          match (out.(i), first.(i)) with
          | Some o, Some r -> Check.same_schedule o.Scheduler.best r
          | _ -> false)
    else begin
      proved := 0;
      nops := 0;
      count_failed_of ops (fun i ->
          let ok =
            match out.(i) with
            | None -> false
            | Some o ->
              let best = o.Scheduler.best in
              if o.Scheduler.completed then incr proved;
              nops := !nops + best.Omega.nops;
              contract o
              && Check.schedule_ok Trace.untraced simulation blocks.(i) best
              && (Block.length blocks.(i) > Check.oracle_max
                 || o.Scheduler.completed
                    && Check.exhaustive_min simulation (Dag.of_block blocks.(i)) = best.Omega.nops)
          in
          first.(i) <- (if ok then Option.map (fun o -> o.Scheduler.best) out.(i) else None);
          ok)
    end
  in
  let replay tr ~first:first_round t =
    let sp = Trace.spanner tr in
    let probes =
      if first_round then
        generator_probe tr ~gen:(fun i -> Corpus.paper_block ~seed drawn.(i)) blocks
        +: solver_probe tr t ~options ~machine:simulation blocks
      else (0, 0)
    in
    probes
    +: checked n (fun i ->
          guarded tr i (fun () ->
              let o =
                sp.run "compile" (fun () ->
                    let dag = sp.run "Dag.of_block" (fun () -> Dag.of_block blocks.(i)) in
                    sp.run "Optimal.schedule" (fun () -> Optimal.schedule ~options simulation dag))
              in
              if first_round then add_optimal t o.Optimal.stats;
              (match out.(i) with
               | Some u -> Check.same_schedule u.Scheduler.best o.Optimal.best
               | None -> false)
              && sp.run "check" (fun () -> Check.schedule_ok sp simulation blocks.(i) o.Optimal.best)))
  in
  {
    n;
    reset = Array.iter (fun i -> out.(i) <- None);
    op = (fun i -> out.(i) <- Some (B.schedule ~options simulation (Dag.of_block blocks.(i))));
    check;
    counts = (fun () -> (!proved, !nops));
    outcomes =
      (fun () ->
        List.init n (fun i ->
            match first.(i) with
            | Some r -> Printf.sprintf "%d nops=%d" i r.Omega.nops
            | None -> Printf.sprintf "%d failed" i));
    root = "compile";
    replay;
  }

(* ------------------------------------------------------------------ *)
(* exact-hard                                                          *)

let exact_hard ~seed drawn =
  let n = Array.length drawn in
  let blocks = Array.map (Corpus.paper_block ~seed) drawn in
  let machines = Array.map (Corpus.random_machine ~seed) drawn in
  let lambda = 5_000 in
  let options = { Optimal.default_options with Optimal.lambda } in
  let out = Array.make n None in
  (* outcome of the first pass: proved optimum, NOPs *)
  let first = Array.make n None in
  let proved = ref 0 and nops = ref 0 in
  let outcome (p : Portfolio.outcome) = (p.Portfolio.proved, p.Portfolio.best.Omega.nops) in
  (* Every pass is checked in full: which side of the race proves a
     block first, and so its answer among equal optima, may depend on
     timing. *)
  let check ~pass ops =
    if pass = 0 then begin
      proved := 0;
      nops := 0
    end;
    count_failed_of ops (fun i ->
        match out.(i) with
        | None -> false
        | Some p ->
          let best = p.Portfolio.best in
          (* the race's outcome contract (portfolio.mli) *)
          let ok =
            p.Portfolio.status = Budget.Complete = (p.Portfolio.proved <> None)
            && Option.fold ~none:true ~some:(( = ) best.Omega.nops) p.Portfolio.proved
            && Check.schedule_ok Trace.untraced machines.(i) blocks.(i) best
          in
          if pass = 0 then begin
            if p.Portfolio.proved <> None then incr proved;
            nops := !nops + best.Omega.nops;
            first.(i) <- (if ok then Some (outcome p) else None)
          end;
          ok && first.(i) <> None)
  in
  let replay tr ~first:first_round t =
    let sp = Trace.spanner tr in
    let probes =
      if first_round then
        generator_probe tr ~gen:(fun i -> Corpus.paper_block ~seed drawn.(i)) blocks
      else (0, 0)
    in
    probes
    +: checked n (fun i ->
          guarded tr i (fun () ->
              let m = machines.(i) in
              let dag, (p, secs) =
                sp.run "solve" (fun () ->
                    let dag = sp.run "Dag.of_block" (fun () -> Dag.of_block blocks.(i)) in
                    (dag, timed sp "Portfolio.run" (fun () -> Portfolio.run ~options m dag)))
              in
              if first_round then add_portfolio t p secs;
              let pnops = p.Portfolio.best.Omega.nops in
              (* Proofs from the untraced pass and the replay agree; and in
                 the first round each backend alone agrees with both. *)
              let untraced_proof = Option.bind out.(i) (fun p -> p.Portfolio.proved) in
              let alone_ok =
                (not first_round)
                || sp.run "alone" (fun () ->
                       let b, bs = timed sp "Optimal.schedule" (fun () -> Optimal.schedule ~options m dag) in
                       let c, cs = timed sp "Cp.solve" (fun () -> Cp.solve ~lambda m dag) in
                       add_optimal t b.Optimal.stats;
                       add_cp t c.Cp.stats;
                       t.bnb_s <- t.bnb_s +. bs;
                       t.cp_s <- t.cp_s +. cs;
                       let bnb_proof =
                         if b.Optimal.stats.Optimal.completed then Some b.Optimal.best.Omega.nops else None
                       in
                       agree
                         ~proofs:[ bnb_proof; c.Cp.stats.Cp.proved; p.Portfolio.proved; untraced_proof ]
                         ~bests:[ b.Optimal.best.Omega.nops; c.Cp.best.Omega.nops; pnops ])
              in
              alone_ok
              && agree ~proofs:[ p.Portfolio.proved; untraced_proof ] ~bests:[ pnops ]
              && sp.run "check" (fun () -> Check.schedule_ok sp m blocks.(i) p.Portfolio.best)))
  in
  {
    n;
    reset = Array.iter (fun i -> out.(i) <- None);
    op = (fun i -> out.(i) <- Some (Portfolio.run ~options machines.(i) (Dag.of_block blocks.(i))));
    check;
    counts = (fun () -> (!proved, !nops));
    outcomes =
      (fun () ->
        List.init n (fun i ->
            match first.(i) with
            | Some (pr, nn) ->
              Printf.sprintf "%d nops=%d proved=%s" i nn
                (match pr with Some v -> string_of_int v | None -> "-")
            | None -> Printf.sprintf "%d failed" i));
    root = "solve";
    replay;
  }

let all =
  [ { name = "serve-dup"; tail_q = 0.99;
      select = hot_pool ~classes:1000; setup = serve_dup };
    { name = "compile-paper"; tail_q = 0.95;
      select = (fun ~seed -> Corpus.stratified ~seed ~n:20_000 ()); setup = compile_paper };
    { name = "exact-hard"; tail_q = 0.90;
      select = (fun ~seed -> Corpus.stratified ~seed ~n:300 ()); setup = exact_hard } ]

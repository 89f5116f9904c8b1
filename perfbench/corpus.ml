(* The workloads' inputs, each a pure function of the seed.  Blocks come
   from the program's own generator ([Generator.of_seed] over the
   [Schedule.seed_at] stream: the paper's Figure 5 size mix); the
   re-presentations of serve-dup are made here. *)

open Pipesched_ir
module Rng = Pipesched_prelude.Rng
module Generator = Pipesched_synth.Generator
module Schedule = Pipesched_synth.Schedule

(* Independent streams of one workload seed. *)
let stream ~seed salt i = Schedule.seed_at ~seed:(seed lxor salt) i

let paper_block ~seed i = Generator.of_seed (Schedule.seed_at ~seed i)

let params ~seed i = Generator.sample_params (Rng.create (Schedule.seed_at ~seed i))

(* Stream indices of [n] paper-mix blocks whose generator parameters
   follow the mix with less sampling noise: of the first [4 n] parameter
   draws that [keep] accepts, ordered by statement count, then variable
   count, every fourth, in stream order.  The statement count sets most
   of a block's size (one block in ten of the mix is very large) and a
   small variable pool makes long dependence chains; between them they
   set most of a block's solve time and NOPs.  Only parameters are drawn
   here, so the blocks left out are never compiled. *)
let stratified ?(keep = fun _ -> true) ~seed ~n () =
  let k = 4 in
  let drawn = Array.make (k * n) (0, 0, 0) in
  let rec fill i j =
    if j < k * n then begin
      let p = params ~seed i in
      if keep p then begin
        drawn.(j) <- (p.Generator.statements, p.Generator.variables, i);
        fill (i + 1) (j + 1)
      end
      else fill (i + 1) j
    end
  in
  fill 0 0;
  Array.sort compare drawn;
  let kept = Array.init n (fun j -> let _, _, i = drawn.((k * j) + (k / 2)) in i) in
  Array.sort compare kept;
  kept

let random_machine ~seed i =
  Generator.random_machine (Rng.create (stream ~seed 0x6a09e667 i))

(* A uniformly drawn legal order of the block's DAG. *)
let reorder rng blk =
  let dag = Dag.of_block blk in
  let n = Dag.length dag in
  let indeg = Array.init n (fun v -> Array.length (Dag.preds_arr dag v)) in
  let ready = ref (List.filter (fun v -> indeg.(v) = 0) (List.init n Fun.id)) in
  let order =
    Array.init n (fun _ ->
        let v = Rng.choose rng (Array.of_list !ready) in
        ready := List.filter (( <> ) v) !ready;
        Array.iter
          (fun w ->
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then ready := w :: !ready)
          (Dag.succs_arr dag v);
        v)
  in
  Block.permute blk order

(* Fresh tuple ids, renamed variables, other immediates and swapped
   binary operands: nothing the schedule depends on. *)
let relabel rng ~tag blk =
  let tus = Block.tuples blk in
  let n = Array.length tus in
  let fresh = Array.init (2 * n) (fun i -> i + 1) in
  Rng.shuffle rng fresh;
  let newid = Hashtbl.create n in
  Array.iteri (fun i (tu : Tuple.t) -> Hashtbl.replace newid tu.Tuple.id fresh.(i)) tus;
  let value = function
    | Operand.Ref id -> Operand.Ref (Hashtbl.find newid id)
    | Operand.Imm k -> Operand.Imm (k + 1 + Rng.int rng 50)
    | v -> v
  in
  let rename = function
    | Operand.Var x -> Operand.Var (Printf.sprintf "p%d_%s" tag x)
    | v -> v
  in
  Block.of_tuples_exn
    (Array.to_list tus
    |> List.map (fun (tu : Tuple.t) ->
           let id = Hashtbl.find newid tu.Tuple.id in
           match tu.Tuple.op with
           | Op.Const -> Tuple.make ~id Op.Const (value tu.Tuple.a) Operand.Null
           | Op.Load -> Tuple.make ~id Op.Load (rename tu.Tuple.a) Operand.Null
           | Op.Store -> Tuple.make ~id Op.Store (rename tu.Tuple.a) (value tu.Tuple.b)
           | op when Op.value_arity op = 1 -> Tuple.make ~id op (value tu.Tuple.a) Operand.Null
           | op ->
             let a = value tu.Tuple.a and b = value tu.Tuple.b in
             let a, b = if Rng.bool rng then (a, b) else (b, a) in
             Tuple.make ~id op a b))

(* Presentation [j] of [blk]: another legal order, relabelled. *)
let present ~seed j blk =
  let rng = Rng.create (stream ~seed 0x3c6ef372 j) in
  relabel rng ~tag:j (reorder rng blk)

(* A seeded permutation of [0 .. n-1]. *)
let permutation ~seed n =
  let a = Array.init n Fun.id in
  Rng.shuffle (Rng.create (stream ~seed 0x1f83d9ab 0)) a;
  a

(* Spans recorded from outside the program: each is a call into one
   public function, timed around the call.  Spans live in memory and are
   written out as JSON lines when the run ends. *)

type span = {
  layer : string;
  start : float;
  stop : float;
  parent : int;  (* index of the enclosing span, -1 at the root *)
  req : int;  (* the operation (request, block) the span belongs to *)
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;
  mutable req : int;
}

let dummy = { layer = ""; start = 0.; stop = 0.; parent = -1; req = -1 }
let create () = { spans = Array.make 4096 dummy; len = 0; stack = []; req = -1 }
let clear t = t.len <- 0; t.stack <- []
let set_req t i = t.req <- i

let span t layer f =
  let idx = t.len in
  if idx = Array.length t.spans then begin
    let a = Array.make (2 * idx) dummy in
    Array.blit t.spans 0 a 0 idx;
    t.spans <- a
  end;
  t.len <- idx + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- idx :: t.stack;
  let start = Est.now () in
  let finish () =
    t.spans.(idx) <- { layer; start; stop = Est.now (); parent; req = t.req };
    t.stack <- List.tl t.stack
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let duration s = s.stop -. s.start

(* [per_req t ~n] sums each layer's span time per operation: layer ->
   array indexed by operation, [infinity] where the operation made no
   call. *)
let per_req t ~n =
  let tbl = Hashtbl.create 32 in
  for k = 0 to t.len - 1 do
    let s = t.spans.(k) in
    let a =
      match Hashtbl.find_opt tbl s.layer with
      | Some a -> a
      | None ->
        let a = Array.make n infinity in
        Hashtbl.replace tbl s.layer a;
        a
    in
    let d = duration s in
    a.(s.req) <- (if a.(s.req) = infinity then d else a.(s.req) +. d)
  done;
  tbl

(* Summed duration of the direct children of every span named [root],
   per operation: what the stages cover of each operation. *)
let child_sum t ~root ~n =
  let a = Array.make n 0. in
  for k = 0 to t.len - 1 do
    let s = t.spans.(k) in
    if s.parent >= 0 && t.spans.(s.parent).layer = root then
      a.(s.req) <- a.(s.req) +. duration s
  done;
  a

(* Writes every span, then one summary line per layer with its call
   count, total time and self time (its spans' time minus the part its
   child spans cover). *)
let write t path =
  let child = Array.make t.len 0. in
  for k = 0 to t.len - 1 do
    let s = t.spans.(k) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  let oc = open_out path in
  let t0 = if t.len > 0 then t.spans.(0).start else 0. in
  let us x = (x -. t0) *. 1e6 in
  let layers = Hashtbl.create 32 in
  for k = 0 to t.len - 1 do
    let s = t.spans.(k) in
    Printf.fprintf oc
      "{\"span\":%d,\"layer\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"req\":%d}\n"
      k s.layer (us s.start) (us s.stop) s.parent s.req;
    let calls, total, self =
      Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt layers s.layer)
    in
    Hashtbl.replace layers s.layer
      (calls + 1, total +. duration s, self +. duration s -. child.(k))
  done;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) layers []
  |> List.sort compare
  |> List.iter (fun (l, (calls, total, self)) ->
         Printf.fprintf oc
           "{\"layer\":%S,\"calls\":%d,\"total_ms\":%.6f,\"self_ms\":%.6f}\n" l
           calls (total *. 1e3) (self *. 1e3));
  close_out oc

(* A span function that can be passed around: [run] records a span in a
   traced replay and simply calls through otherwise. *)
type spanner = { run : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { run = (fun _ f -> f ()) }
let spanner t = { run = (fun layer f -> span t layer f) }

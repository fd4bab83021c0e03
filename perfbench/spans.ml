(* The traced run's span recorder.

   Spans are recorded only here, around the benchmark's calls into each
   layer's public functions: a name, a start, an end, the parent span
   and the operation id.  Self time (a span's duration minus what its
   children cover) is aggregated per name as spans close; the complete
   spans of the first [keep_ops] operations stay in memory and are
   written out as Chrome trace-event JSON when the run ends.  With
   recording off, [with_span] is a plain application. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for a root *)
  lane : string;
  start : float;
  mutable stop : float;
  mutable covered : float;  (* time covered by children *)
}

type agg = { mutable calls : int; mutable total : float; mutable self : float }

let on = ref false
let keep_ops = 400
let mu = Mutex.create ()
let next_id = ref 0
let kept : span list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

(* Per-thread open-span stack and current operation id. *)
let stacks : (int, span list) Hashtbl.t = Hashtbl.create 8
let ops : (int, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let close s =
  let d = s.stop -. s.start in
  let a =
    match Hashtbl.find_opt aggs s.name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total = 0.; self = 0. } in
        Hashtbl.add aggs s.name a;
        a
  in
  a.calls <- a.calls + 1;
  a.total <- a.total +. d;
  a.self <- a.self +. (d -. s.covered)

let with_span ?(lane = "") name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let s =
      locked (fun () ->
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          let parent = match stack with p :: _ -> p.id | [] -> -1 in
          let op = Option.value ~default:(-1) (Hashtbl.find_opt ops tid) in
          incr next_id;
          let s =
            { id = !next_id; name; op; parent; lane; start = Timing.now ();
              stop = 0.; covered = 0. }
          in
          Hashtbl.replace stacks tid (s :: stack);
          s)
    in
    Fun.protect f ~finally:(fun () ->
        s.stop <- Timing.now ();
        locked (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: (p :: _ as rest)) ->
                p.covered <- p.covered +. (s.stop -. s.start);
                Hashtbl.replace stacks tid rest
            | Some _ | None -> Hashtbl.remove stacks tid);
            close s;
            if s.op >= 0 && s.op < keep_ops then kept := s :: !kept))
  end

(* Run [f] as operation [k]: its spans carry [k] as their op id, under
   a root span named "op". *)
let op ?lane k f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    locked (fun () -> Hashtbl.replace ops tid k);
    with_span ?lane "op" f
  end

(* Aggregate of one span name: (calls, total seconds, self seconds). *)
let stats name =
  locked (fun () ->
      match Hashtbl.find_opt aggs name with
      | Some a -> (a.calls, a.total, a.self)
      | None -> (0, 0., 0.))

(* The per-layer self-time table, largest self time first. *)
let self_table () =
  let rows =
    locked (fun () ->
        Hashtbl.fold (fun name a acc -> (name, a.calls, a.total, a.self) :: acc)
          aggs [])
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  let all_self = List.fold_left (fun t (_, _, _, s) -> t +. s) 0. rows in
  Printf.sprintf "%-22s %9s %12s %12s %10s %7s\n" "span" "calls" "total_ms"
    "self_ms" "self_us/call" "self_%"
  ^ String.concat ""
      (List.map
         (fun (name, calls, total, self) ->
           Printf.sprintf "%-22s %9d %12.3f %12.3f %10.2f %7.2f\n" name calls
             (total *. 1e3) (self *. 1e3)
             (self *. 1e6 /. float_of_int (max 1 calls))
             (if all_self > 0. then 100. *. self /. all_self else 0.))
         rows)

(* The kept spans as Chrome trace-event JSON (one trace id per
   operation, one lane per client thread). *)
let chrome_json () =
  let spans = locked (fun () -> !kept) in
  let by_parent = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add by_parent s.parent s) spans;
  let ns t = int_of_float (t *. 1e9) in
  let rec build s =
    let children =
      Hashtbl.find_all by_parent s.id
      |> List.sort (fun a b -> compare a.start b.start)
      |> List.map build
    in
    {
      Trace.name = s.name;
      detail = "";
      trace_id = Printf.sprintf "%016x" s.op;
      actor = s.lane;
      start_ns = ns s.start;
      elapsed_ns = ns s.stop - ns s.start;
      io = Io_stats.create ();
      alloc_bytes = 0;
      rows = None;
      children;
    }
  in
  Hashtbl.find_all by_parent (-1)
  |> List.sort (fun a b -> compare a.start b.start)
  |> List.map build |> Chrome_trace.to_string

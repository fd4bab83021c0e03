(* The benchmark's result: operation accounting, named metrics with
   units and sample counts, and the one-line JSON summary that ends
   standard output. *)

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int;  (* 0 when the metric is a count or a ratio *)
}

let metrics : metric list ref = ref []
let notes : string list ref = ref []
let attempted = ref 0
let failed = ref 0
let wrongs = ref 0
let failure_reasons : (string, int) Hashtbl.t = Hashtbl.create 8

(* A timing with no samples comes out as [nan]; {!emit} refuses it. *)
let add ?(samples = 0) name unit value =
  metrics := { name; value; unit; samples } :: !metrics

(* A timing metric in ms from a sorted array of seconds at percentile [q],
   noting how many samples lie beyond it. *)
let add_pct name sorted q =
  let n = Array.length sorted in
  add ~samples:n name "ms" (Timing.pct sorted q *. 1e3);
  let tail =
    match Timing.resolvable_tail n with
    | Some t -> Printf.sprintf "p%g" (t *. 100.)
    | None -> "none"
  in
  notes :=
    Printf.sprintf "%s: p%g over %d samples, %d beyond it (resolvable tail: %s)"
      name (q *. 100.) n (Timing.beyond n q) tail
    :: !notes

let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* The median latency in ms from seconds in completion order, taken
   window by window ({!Loop.window_median}). *)
let add_median name lat =
  let n = Array.length lat in
  add ~samples:n name "ms" (Loop.window_median lat *. 1e3);
  note "%s: median of %d equal-count windows' medians over %d samples" name
    Loop.windows n

let attempt () = incr attempted

let fail reason =
  incr failed;
  Hashtbl.replace failure_reasons reason
    (1 + Option.value ~default:0 (Hashtbl.find_opt failure_reasons reason))

(* A wrong output: rows that differ from the reference, or an exception
   or error reply to an operation that is valid by construction. *)
let wrong reason what =
  incr wrongs;
  fail reason;
  if !wrongs <= 5 then note "wrong output (%s): %s" reason what

let mismatch what = wrong "mismatch" what

let correct () = !wrongs = 0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print the human-readable report, then the JSON summary as the last
   line.  [keep] lists the metric names the summary carries, in order.
   A kept metric without a value (a timing with no samples) fails the
   run: no summary, exit code 1. *)
let emit ~keep =
  let ms = List.rev !metrics in
  List.iter print_endline (List.rev !notes);
  Hashtbl.iter
    (fun r n -> Printf.printf "failed operations (%s): %d\n" r n)
    failure_reasons;
  Printf.printf "attempted %d, failed %d, wrong outputs %d\n" !attempted
    !failed !wrongs;
  List.iter
    (fun m ->
      Printf.printf "%-32s %16.6f %-6s%s\n" m.name m.value m.unit
        (if m.samples > 0 then Printf.sprintf " (n=%d)" m.samples else ""))
    ms;
  let find name =
    match List.find_opt (fun m -> m.name = name) ms with
    | Some m -> m
    | None -> failwith ("metric not produced: " ^ name)
  in
  let fields =
    List.map
      (fun (name, unit) ->
        let m = find name in
        if m.unit <> unit then failwith ("unit mismatch for " ^ name);
        if not (Float.is_finite m.value) then begin
          Printf.eprintf "perfbench: %s has no value (no samples)\n%!" name;
          exit 1
        end;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number m.value) unit)
      keep
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (correct ()) !attempted !failed
    (String.concat ", " fields)

let has name = List.exists (fun m -> m.name = name) !metrics

(* Clocks, sample buffers and order statistics shared by the workloads. *)

let now = Unix.gettimeofday

(* A growable buffer of float samples. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

(* The samples in the order they were pushed. *)
let to_array s = Array.sub s.a 0 s.n

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array ([nan] when empty). *)
let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Samples ranked strictly above the [q]-percentile. *)
let beyond n q = n - int_of_float (ceil (q *. float_of_int n))

(* The highest of the usual percentiles with at least ten samples beyond
   it: the tail a run of [n] samples can actually resolve. *)
let resolvable_tail n =
  List.find_opt (fun q -> beyond n q >= 10) [ 0.999; 0.99; 0.95; 0.9; 0.5 ]

let median s = pct (sorted s) 0.5

let mean s =
  if s.n = 0 then nan
  else begin
    let t = ref 0. in
    for i = 0 to s.n - 1 do
      t := !t +. s.a.(i)
    done;
    !t /. float_of_int s.n
  end

let median_of_list l =
  let s = samples () in
  List.iter (push s) l;
  median s

(* The wall times of [k] more set-ups, each from a fully collected heap
   so that what the run left behind does not land on them; [release]
   tears each one down, untimed. *)
let setups ?(release = ignore) k setup =
  List.init k (fun _ ->
      Gc.full_major ();
      let t0 = now () in
      let s = setup () in
      let d = now () -. t0 in
      release s;
      d)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* Sleep until the absolute [now] instant [t]. *)
let sleep_until t =
  let d = t -. now () in
  if d > 0. then Thread.delay d

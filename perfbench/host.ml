(* The host's speed, read from a fixed reference kernel run in small slices
   next to the measured work.

   The shared host this benchmark runs on changes speed by up to 2x in
   phases of seconds to minutes, and a phase can cover a whole run: a
   minimum or a median taken inside one run cannot remove that. So every
   timed interval also samples this kernel, and its wall time is scaled by
   [nominal_slice_s / mean slice time over the interval]: the time the
   interval would have taken on a host that runs the kernel at its nominal
   speed ("reference seconds").

   The kernel uses no code of the program. Sampled every 4 ms during a
   repeated kmeans sweep, its slowdowns tracked the sweep's with a log-log
   correlation of 0.91 (slope 0.75) on a 2-core shared x86 host, which cut
   the spread of the sweep's time from 0.17 to 0.07 (quartile distance
   over median). *)

let now = Unix.gettimeofday

(* The reference kernel's time per slice on a quiet host, in seconds. *)
let nominal_slice_s = 8e-5

(* While a sweep runs, a slice is taken at most this often. *)
let every_s = 0.004

let table = Hashtbl.create 4096
let () = for i = 0 to 4095 do Hashtbl.replace table (i * 131) i done
let data = Array.init 16384 (fun i -> ((i * 7919) + 13) land 16383)
let work = Array.make 64 0
let sink = ref 0

(* One slice: gather, insertion-sort with polymorphic compare, hash, look up
   and scatter. It allocates nothing, so its speed does not depend on the
   program's heap or on how many domains the program runs. *)
let kernel () =
  let acc = ref 0 in
  for r = 1 to 20 do
    for i = 0 to 63 do
      work.(i) <- data.(((r * 64) + (i * 97)) land 16383)
    done;
    for i = 1 to 63 do
      let x = work.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && compare work.(!j) x > 0 do
        work.(!j + 1) <- work.(!j);
        decr j
      done;
      work.(!j + 1) <- x
    done;
    acc := !acc + Hashtbl.find table ((work.(r land 63) land 4095) * 131) + Hashtbl.hash work.(7);
    let k = ((r * 131) + !acc) land 16383 in
    data.(k) <- (data.(k) + 1) land 16383
  done;
  sink := !sink + !acc

(* The slices taken over one timed interval. *)
type t = { mutable slices : int; mutable kernel_s : float; mutable last : float }

let create () = { slices = 0; kernel_s = 0.0; last = neg_infinity }

let slice t =
  let t0 = now () in
  kernel ();
  let t1 = now () in
  t.slices <- t.slices + 1;
  t.kernel_s <- t.kernel_s +. (t1 -. t0);
  t.last <- t1

(* [n] slices back to back, at an edge of a timed interval. The first few
   run untimed: straight after a wait, a slice runs slower than the host's
   speed, while the caches and the core wake up. *)
let burst_warmup = 8

let burst t n =
  for _ = 1 to burst_warmup do
    kernel ()
  done;
  for _ = 1 to n do
    slice t
  done

(* A slice if [every_s] has passed since the last one. Returns the seconds
   it took, which the caller leaves out of the work's time. *)
let tick t =
  let t0 = now () in
  if t0 -. t.last < every_s then 0.0
  else begin
    slice t;
    t.last -. t0
  end

(* Scales wall seconds of the interval [t] sampled to reference seconds. *)
let scale t secs =
  if t.slices = 0 then secs else secs *. nominal_slice_s *. float_of_int t.slices /. t.kernel_s

let default_jobs () = Domain.recommended_domain_count ()

(* OCaml 5.1 runs at most 128 domains in a process, the main one
   included ([Max_domains], caml/domain.h); past that [Domain.spawn]
   fails.  A serve daemon's pool workers and the workers behind [run]
   add up, so one request for domains keeps to half the cap. *)
let max_jobs = 64

exception Worker of exn

module Pool = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
    on_error : exn -> unit;
  }

  let worker_loop t () =
    let rec wait () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.stopping then None
      else begin
        Condition.wait t.nonempty t.mutex;
        wait ()
      end
    in
    let rec next () =
      match Mutex.protect t.mutex wait with
      | None -> ()
      | Some f ->
        (try f () with e -> (try t.on_error e with _ -> ()));
        next ()
    in
    next ()

  let jobs t = Mutex.protect t.mutex (fun () -> List.length t.workers)

  let pending t = Mutex.protect t.mutex (fun () -> Queue.length t.queue)

  let submit t f =
    Mutex.protect t.mutex (fun () ->
        if t.stopping then invalid_arg "Parallel.Pool.submit: pool is shut down";
        Queue.push f t.queue;
        Condition.signal t.nonempty)

  let shutdown t =
    Mutex.lock t.mutex;
    let was_stopping = t.stopping in
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if not was_stopping then List.iter Domain.join t.workers

  let empty on_error =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      on_error;
    }

  (* The one place a domain is spawned: grow [t] to [n] workers and
     return how many it has.  Should the runtime refuse a domain, [t]
     keeps the workers already started. *)
  let grow t n =
    Mutex.protect t.mutex (fun () ->
        (try
           while List.length t.workers < n do
             t.workers <- Domain.spawn (worker_loop t) :: t.workers
           done
         with Failure _ -> ());
        List.length t.workers)

  let create ?(on_error = fun _ -> ()) ~jobs () =
    if jobs < 1 then invalid_arg "Parallel.Pool.create: jobs < 1";
    let t = empty on_error in
    if grow t jobs < jobs then begin
      shutdown t;
      failwith "Parallel.Pool.create: the runtime refused a domain"
    end;
    t
end

(* The workers behind [run]: one pool for the process, empty until a run
   needs a helper.  Every idle domain takes part in every stop-the-world
   minor collection, so with the caller it keeps to one domain per core. *)
let shared = Pool.empty ignore
let max_helpers = Stdlib.max 1 (default_jobs () - 1)
let domains ~jobs = Stdlib.min jobs (1 + max_helpers)

let run ~jobs ~tasks ~init f =
  if jobs < 1 then invalid_arg "Parallel.run: jobs < 1";
  if tasks < 0 then invalid_arg "Parallel.run: tasks < 0";
  if Stdlib.min jobs tasks = 1 then begin
    (* Inline on the calling domain: no hand-off, no atomics.  This is
       the path every small run takes. *)
    let st = init () in
    for i = 0 to tasks - 1 do
      f st i
    done
  end
  else if tasks > 0 then begin
    let want = Stdlib.min (Stdlib.min jobs tasks - 1) max_helpers in
    let next = Atomic.make 0 in
    let m = Mutex.create () and left = Condition.create () in
    let active = ref 0 and closed = ref false and error = ref None in
    (* Work stealing off a shared counter: a domain that finishes its
       task grabs the next unclaimed index, so an uneven task mix still
       balances.  Task index -> output location must be a function of
       the index alone for the result to be schedule-independent. *)
    let work () =
      try
        let st = init () in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < tasks then begin
            f st i;
            loop ()
          end
        in
        loop ()
      with e -> Mutex.protect m (fun () -> if Option.is_none !error then error := Some e)
    in
    (* A helper that a busy pool reaches only after every task is claimed
       does nothing, so a nested run never waits for a worker it holds. *)
    let helper () =
      let join () =
        let join = (not !closed) && Atomic.get next < tasks in
        if join then incr active;
        join
      in
      if Mutex.protect m join then begin
        work ();
        Mutex.protect m (fun () ->
            decr active;
            Condition.signal left)
      end
    in
    for _ = 1 to Stdlib.min want (Pool.grow shared want) do
      Pool.submit shared helper
    done;
    work ();
    Mutex.protect m (fun () ->
        closed := true;
        while !active > 0 do
          Condition.wait left m
        done);
    Option.iter (fun e -> raise (Worker e)) !error
  end

let for_ ~jobs ~tasks f = run ~jobs ~tasks ~init:ignore (fun () i -> f i)

let run_chunks ~jobs ~threshold ~n ~init f =
  if n < 0 then invalid_arg "Parallel.run_chunks: n < 0";
  if n > 0 then begin
    if jobs <= 1 || n < threshold then begin
      (* below the width threshold the hand-off overhead dominates the
         work, so run the whole range inline with a single state *)
      let st = init () in
      f st 0 n
    end
    else begin
      (* more chunks than workers so an uneven per-index cost still
         balances over the shared counter; chunk boundaries are a function
         of [n] and [jobs] only, and every index lands in exactly one
         chunk, so writes to index-designated slots stay disjoint *)
      let ntasks = Stdlib.min n (jobs * 4) in
      let chunk = ((n + ntasks) - 1) / ntasks in
      run ~jobs ~tasks:ntasks ~init (fun st t ->
          let lo = t * chunk in
          let hi = Stdlib.min n (lo + chunk) in
          if lo < hi then f st lo hi)
    end
  end

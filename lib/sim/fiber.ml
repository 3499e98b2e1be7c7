type 'a resumer = ('a, exn) result -> unit

type _ Effect.t += Suspend : ('a resumer -> unit) -> 'a Effect.t

let await register = Effect.perform (Suspend register)

let spawn ?on_error engine f =
  let open Effect.Deep in
  let handle_error e =
    match on_error with
    | Some h -> h e
    | None -> raise e
  in
  let run () =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc = handle_error;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* Resume-once: late resumers (a lock grant racing a
                     timeout) become no-ops instead of double-resuming. *)
                  let resumed = ref false in
                  let resume r =
                    if not !resumed then begin
                      resumed := true;
                      ignore
                        (Engine.schedule engine ~delay:0.0 (fun () ->
                             match r with
                             | Ok v -> continue k v
                             | Error e -> discontinue k e))
                    end
                  in
                  register resume)
            | _ -> None);
      }
  in
  ignore (Engine.schedule engine ~delay:0.0 run)

let sleep engine d =
  await (fun resume ->
      ignore (Engine.schedule engine ~delay:d (fun () -> resume (Ok ()))))

module Ivar = struct
  type 'a state = Empty of 'a resumer Queue.t | Full of 'a

  type 'a t = { engine : Engine.t; mutable state : 'a state }

  let create engine = { engine; state = Empty (Queue.create ()) }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Fiber.Ivar.fill: already filled"
    | Empty waiters ->
      t.state <- Full v;
      Queue.iter (fun resume -> resume (Ok v)) waiters

  let read t =
    match t.state with
    | Full v -> v
    | Empty waiters -> await (fun resume -> Queue.add resume waiters)

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false
  let peek t = match t.state with Full v -> Some v | Empty _ -> None
end

let all engine thunks =
  let cells =
    List.map
      (fun thunk ->
        let iv = Ivar.create engine in
        spawn engine (fun () ->
            let result = match thunk () with v -> Ok v | exception e -> Error e in
            Ivar.fill iv result);
        iv)
      thunks
  in
  let results = List.map Ivar.read cells in
  List.map (function Ok v -> v | Error e -> raise e) results
